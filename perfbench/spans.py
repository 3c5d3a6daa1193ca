"""In-memory spans around calls into dpfkit's public functions.

A span records a name, start and end (perf_counter_ns), the index of its
parent span and the query it belongs to.  The tracer keeps a stack of open
spans, so a span's parent is whichever span was open when it began; the
benchmark runs one query at a time in one thread, so spans nest strictly.
Spans stay in a list until the run writes them out.

`instrument` wraps each traced function at every binding through which code
outside its own definition reaches it (a module attribute, a class
attribute or a dispatch-table entry) and restores the originals on exit.
Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# The package modules that get layer metrics.  `sizing` and `baselines`
# are analytic or reference-only code and are not traced.
LAYERS = ("prg", "dpf", "dcf", "keyfile", "pir", "algebra", "cli")

# Spans the benchmark opens around its own phases of a query.
BENCH_SPANS = ("query", "keygen", "answer", "reconstruct")


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "error", "size")

    def __init__(self, name: str, start: int, parent: int | None, query):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.query = query
        self.error = False
        self.size: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self.query))
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: bool = False, size: int | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        span.error = error
        span.size = size
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        except BaseException:
            self.end(idx, error=True)
            raise
        self.end(idx)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps([s.name, s.start, s.end, s.parent, s.query, s.error, s.size])
                )
                fh.write("\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its direct children cover.

    Children are clipped to the parent's interval and merged before they
    are subtracted, so back-to-back children that share an endpoint, or
    (in principle) overlapping ones, are not counted twice.  Grandchildren
    lie inside their own parent, which already covers them.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        )
        covered = 0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered)
    return out


def _wrap(tracer: Tracer, name: str, fn: Callable, size_of, failed) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, error=True)
            raise
        tracer.end(
            idx,
            error=bool(failed and failed(result)),
            size=size_of(args, result) if size_of else None,
        )
        return result

    return traced


def traced_functions():
    """(span name, size of the call, failure test, bindings) for each traced function.

    A binding is (owner, key): a module or class attribute, or a dict
    entry, through which callers reach the function.  `from x import f`
    copies the function into the importing module, so each copy is its
    own binding; cli keeps `gen` and `dcf_gen` in a dispatch table.
    """
    from dpfkit import algebra, baselines, cli, dcf, dpf, keyfile, pir, prg

    def first_arg_len(args, result):
        return len(args[0])

    def result_len(args, result):
        return len(result)

    def expanded_len(args, result):
        return result.data.size

    gens = cli._SCHEME_GENERATORS
    return [
        ("prg.expand", expanded_len, None,
         [(prg, "expand"), (dpf, "expand"), (dcf, "expand"), (baselines, "expand")]),
        ("dpf.gen", None, None, [(dpf, "gen"), (pir, "gen"), (gens, "ours")]),
        ("dpf.eval_all", None, None, [(dpf, "eval_all"), (pir, "eval_all")]),
        ("dpf.eval_point", None, None, [(dpf, "eval_point")]),
        ("dpf.decode", None, None, [(dpf, "decode"), (pir, "decode")]),
        ("dcf.dcf_gen", None, None, [(dcf, "dcf_gen"), (gens, "dcf")]),
        ("dcf.dcf_eval", None, None, [(dcf, "dcf_eval")]),
        ("keyfile.key_to_bytes", result_len, None, [(keyfile, "key_to_bytes")]),
        ("keyfile.key_from_bytes", first_arg_len, None, [(keyfile, "key_from_bytes")]),
        ("keyfile.write_key_file", None, None, [(keyfile, "write_key_file")]),
        ("keyfile.read_key_file", None, None, [(keyfile, "read_key_file")]),
        ("pir.pir_query", None, None, [(pir, "pir_query")]),
        ("pir.pir_answer", None, None, [(pir, "pir_answer")]),
        ("pir.pir_reconstruct", None, None, [(pir, "pir_reconstruct")]),
        ("algebra.lift_all", result_len, None, [(algebra.FieldVector, "lift_all")]),
        # main() turns every library error into a non-zero exit code.
        ("cli.main", None, lambda code: code != 0, [(cli, "main")]),
    ]


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route every binding in `traced_functions()` through `tracer`."""
    saved = []
    try:
        for name, size_of, failed, bindings in traced_functions():
            for owner, key in bindings:
                original = _get(owner, key)
                saved.append((owner, key, original))
                _set(owner, key, _wrap(tracer, name, original, size_of, failed))
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            _set(owner, key, original)
