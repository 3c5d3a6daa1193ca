"""The benchmark's workloads and the closed loop that drives them.

A query is one client round: the client generates and serializes one key
per party (keygen), each party decodes its key and evaluates (answer), and
the client reconstructs the value and checks it (reconstruct).  The parties
run one after another in this process, so a query's latency is the serial
sum of its phases.

Every input (indices, alpha, beta, x, database contents, keygen
randomness) is derived from the workload seed and the query number, so the
same seed gives the same queries.  The library only sees those inputs.
Library calls go through module attributes (`pir.pir_answer`, not an
imported copy) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

from dpfkit import algebra, cli, dcf, dpf, keyfile, pir, prg, sizing

SUBPROCESS_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for a `python` child that imports this same dpfkit."""
    return dict(os.environ, PYTHONPATH=str(Path(dpf.__file__).resolve().parents[1]))


class QueryFailed(Exception):
    """A query whose answer could not be produced or was wrong."""


@dataclass
class Round:
    """One query's client state."""

    keys: list  # per party: serialized key bytes, or a key file path
    key_sizes: list[int]
    expected: object
    kind: str = ""
    x: int = 0


def _query_rng(workload: str, seed: int, query) -> random.Random:
    return random.Random(f"{workload}/{seed}/{query}")


def _keygen_rng(workload: str, seed: int, query) -> prg.DeterministicRandomSource:
    return prg.DeterministicRandomSource(f"{workload}/{seed}/{query}/keygen")


def expected_expansions(params: dpf.SchemeParams) -> int:
    """expand() calls in one gen plus one full evaluation by every party."""
    p, m = params.parties, params.corrupted
    return comb(p, m + 1) + p * params.used_rows() * comb(p - 1, m)


def expected_key_bytes(params: dpf.SchemeParams, scheme: str) -> int:
    """Serialized key size from the analytic size model plus exact framing."""
    size = sizing.size_dcf if scheme == "dcf" else sizing.size_ours
    bits = size(
        params.domain_size, params.parties, params.corrupted,
        params.lambda_bits, params.modulus,
    ) + sizing.serialized_overhead_bits(params, scheme)
    return bits // 8


class Workload:
    name = ""
    modulus_text = ""

    def __init__(self, seed: int, domain_size: int, parties: int, corrupted: int):
        self.seed = seed
        self.modulus = algebra.parse_modulus(self.modulus_text)
        self.params = dpf.SchemeParams.create(
            parties=parties, corrupted=corrupted, modulus=self.modulus,
            domain_size=domain_size,
        )

    @property
    def parties(self) -> int:
        return self.params.parties

    def setup(self, workdir: Path) -> None:
        """Build the workload's inputs."""

    def keygen(self, query) -> Round:
        raise NotImplementedError

    def answer(self, rnd: Round, party: int):
        raise NotImplementedError

    def reconstruct(self, rnd: Round, shares: list) -> bool:
        raise NotImplementedError

    def expansions_per_query(self, rnd: Round) -> int | None:
        """Exact expand() calls one query must make in this process, if any."""
        return expected_expansions(self.params)

    def key_bytes_expected(self, rnd: Round) -> int:
        return expected_key_bytes(self.params, "ours")


class PirWorkload(Workload):
    """Private lookups: full-domain evaluation and an inner product per server."""

    name = "pir-p7-prime"
    modulus_text = "2147483647"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, 2 ** 10 if smoke else 2 ** 18, parties=7, corrupted=3)

    def setup(self, workdir: Path) -> None:
        n = self.params.domain_size
        gen = np.random.default_rng([self.seed, 0x9123])
        self.values = gen.integers(0, self.modulus.value, size=n, dtype=np.uint64)
        entries = algebra.FieldVector(self.modulus, self.values.reshape(1, n))
        self.db = pir.Database(self.modulus, entries)

    def keygen(self, query) -> Round:
        index = _query_rng(self.name, self.seed, query).randrange(self.params.domain_size)
        keys = pir.pir_query(index, self.params, _keygen_rng(self.name, self.seed, query))
        blobs = [keyfile.key_to_bytes(k) for k in keys]
        return Round(blobs, [len(b) for b in blobs], int(self.values[index]), "pir", index)

    def answer(self, rnd: Round, party: int):
        return pir.pir_answer(keyfile.key_from_bytes(rnd.keys[party]), self.db)

    def reconstruct(self, rnd: Round, shares: list) -> bool:
        return pir.pir_reconstruct(shares, self.params).lift() == rnd.expected

    def answer_peak_alloc_mb(self) -> float:
        """tracemalloc peak inside single `pir_answer` calls, median of three."""
        rnd = self.keygen(-100)
        peaks = []
        tracemalloc.start()
        try:
            for blob in rnd.keys[:3]:
                key = keyfile.key_from_bytes(blob)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                pir.pir_answer(key, self.db)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return statistics.median(peaks) / 2 ** 20


class PointWorkload(Workload):
    """Single-point DPF and DCF queries in a fixed 1:1 cycle.

    The cycle is (dpf at alpha, dcf at alpha, dpf at random x, dcf at
    random x), so half the queries check a non-zero output.
    """

    name = "point-p3-crt"
    modulus_text = "2*3*5*7"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, 10 ** 3 if smoke else 10 ** 6, parties=3, corrupted=1)

    def keygen(self, query) -> Round:
        rr = _query_rng(self.name, self.seed, query)
        n = self.params.domain_size
        alpha = rr.randrange(n)
        beta = rr.randrange(1, self.modulus.value)
        x = rr.randrange(n)
        slot = query % 4
        kind = "dpf" if slot % 2 == 0 else "dcf"
        if slot < 2:
            x = alpha
        point = dpf.PointDescription(alpha=alpha, beta=self.modulus.element(beta))
        make = dpf.gen if kind == "dpf" else dcf.dcf_gen
        keys = make(point, self.params, _keygen_rng(self.name, self.seed, query))
        blobs = [keyfile.key_to_bytes(k) for k in keys]
        hit = x == alpha if kind == "dpf" else x <= alpha
        return Round(blobs, [len(b) for b in blobs], beta if hit else 0, kind, x)

    def answer(self, rnd: Round, party: int):
        key = keyfile.key_from_bytes(rnd.keys[party])
        if rnd.kind == "dpf":
            return dpf.eval_point(key, rnd.x)
        return dcf.dcf_eval(key, rnd.x)

    def reconstruct(self, rnd: Round, shares: list) -> bool:
        return dpf.decode(shares, expected_count=self.parties).lift() == rnd.expected

    def expansions_per_query(self, rnd: Round) -> int:
        # gen expands the target row's C(p, m+1) seeds; one point
        # evaluation expands the party's C(p-1, m) seeds of one row.
        p, m = self.params.parties, self.params.corrupted
        return comb(p, m + 1) + p * comb(p - 1, m)

    def key_bytes_expected(self, rnd: Round) -> int:
        return expected_key_bytes(self.params, "ours" if rnd.kind == "dpf" else "dcf")


class CliWorkload(Workload):
    """The documented export path: `keygen` to key files, `eval-all` to stdout.

    By default each step is its own `python -m dpfkit.cli` process, run
    serially.  With `in_process` set, the same argument lists go to
    `cli.main` in this process with stdout captured, which is what the
    traced run uses.
    """

    name = "cli-p3-crt"
    modulus_text = "2*3*5*7"

    def __init__(self, seed: int, smoke: bool = False, in_process: bool = False):
        super().__init__(seed, 2 ** 8 if smoke else 2 ** 15, parties=3, corrupted=1)
        self.in_process = in_process
        self.stdout_sizes: list[int] = []
        self.child_env = child_env()

    def setup(self, workdir: Path) -> None:
        self.keydir = Path(tempfile.mkdtemp(prefix="keys-", dir=workdir))

    def _run_cli(self, argv: list[str]) -> str:
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            text = out.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "dpfkit.cli", *argv],
                capture_output=True, text=True, env=self.child_env,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
            code, text = proc.returncode, proc.stdout
        if code != 0:
            raise QueryFailed(f"dpfkit {argv[0]} exited with {code}")
        return text

    def keygen(self, query) -> Round:
        rr = _query_rng(self.name, self.seed, query)
        n = self.params.domain_size
        alpha, beta = rr.randrange(n), rr.randrange(1, self.modulus.value)
        out_dir = self.keydir / f"q{query}"
        shutil.rmtree(out_dir, ignore_errors=True)
        text = self._run_cli([
            "keygen", "--N", str(n), "--p", str(self.parties),
            "--m", str(self.params.corrupted), "--modulus", self.modulus_text,
            "--alpha", str(alpha), "--beta", str(beta), "--out-dir", str(out_dir),
            "--seed", f"{self.name}/{self.seed}/{query}",
        ])
        paths, sizes = [], []
        for line in text.splitlines():
            _, path, size = line.split(",")
            paths.append(path)
            sizes.append(int(size))
        if len(paths) != self.parties:
            raise QueryFailed(f"keygen printed {len(paths)} keys")
        return Round(paths, sizes, (alpha, beta), "cli")

    def answer(self, rnd: Round, party: int):
        text = self._run_cli(["eval-all", "--key", rnd.keys[party]])
        self.stdout_sizes.append(len(text.encode()))
        return np.array(text.split(), dtype=np.int64)

    def reconstruct(self, rnd: Round, shares: list) -> bool:
        shutil.rmtree(Path(rnd.keys[0]).parent, ignore_errors=True)
        alpha, beta = rnd.expected
        expected = np.zeros(self.params.domain_size, dtype=np.int64)
        expected[alpha] = beta
        total = np.sum(shares, axis=0) % self.modulus.value
        return total.shape == expected.shape and bool(np.array_equal(total, expected))

    def expansions_per_query(self, rnd: Round) -> int | None:
        return expected_expansions(self.params) if self.in_process else None


WORKLOADS = {w.name: w for w in (PirWorkload, PointWorkload, CliWorkload)}


# The reference kernel's nominal time.  Speed-adjusted timings are what a
# phase would take on a machine where the kernel takes this long.
REFERENCE_NOMINAL_S = 0.002
_REFERENCE_Q = np.uint64(2 ** 31 - 1)
# Phases on each side of a phase whose kernel times set its local speed.
_SPEED_WINDOW = 2


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of SHAKE, NumPy and Python-object work.

    The benchmark times it after every query phase to follow the machine's
    momentary speed.  It runs no dpfkit code, so no change to the library
    can move it.
    """
    t0 = time.perf_counter()
    raw = hashlib.shake_128(b"perfbench reference").digest(1 << 16)
    a = np.frombuffer(raw, dtype=np.uint32).astype(np.uint64)
    acc = np.zeros_like(a)
    for _ in range(8):
        acc = (acc + a * a) % _REFERENCE_Q
    _objects = {i: (i, str(i)) for i in range(4000)}
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Nominal over measured reference-kernel time, median of three runs."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_kernel() for _ in range(3))


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    # (query, phase, seconds, reference-kernel seconds or None) for every
    # phase of every correct query, in the order they ran.
    phases: list[tuple] = field(default_factory=list)
    key_sizes: dict[str, list[int]] = field(default_factory=dict)  # by query kind
    failures: list[str] = field(default_factory=list)
    gate_failures: list[str] = field(default_factory=list)

    @property
    def correct_queries(self) -> int:
        return self.attempted - self.failed

    def _timed(self, adjusted: bool):
        """(query, phase, seconds), raw or scaled to the reference speed.

        A phase's local speed is the median kernel time over the phases
        within _SPEED_WINDOW of it, so one disturbed kernel run cannot
        distort a phase.
        """
        refs = [p[3] for p in self.phases]
        for i, (query, phase, secs, _) in enumerate(self.phases):
            if adjusted:
                local = statistics.median(refs[max(0, i - _SPEED_WINDOW): i + _SPEED_WINDOW + 1])
                secs *= REFERENCE_NOMINAL_S / local
            yield query, phase, secs

    def times(self, phase: str, adjusted: bool = False) -> list[float]:
        return [secs for _, p, secs in self._timed(adjusted) if p == phase]

    def query_times(self, adjusted: bool = False) -> list[float]:
        """Each correct query's latency: the sum of its phases."""
        totals: dict = {}
        for query, _, secs in self._timed(adjusted):
            totals[query] = totals.get(query, 0.0) + secs
        return list(totals.values())


class _NoSpans:
    query = None

    @contextlib.contextmanager
    def span(self, name):
        yield None


def run_query(workload: Workload, query, tracer=None, result=None,
              reference: bool = False):
    """Run one query; record its phases and any failure in `result`.

    With `reference` set, the reference kernel runs after each phase,
    outside the phase's timing.
    """
    tracer = tracer or _NoSpans()
    result = result if result is not None else LoopResult()
    phases = []

    def timed(phase, fn, *args):
        t0 = time.perf_counter()
        with tracer.span(phase):
            out = fn(*args)
        secs = time.perf_counter() - t0
        phases.append((query, phase, secs, reference_kernel() if reference else None))
        return out

    tracer.query = query
    before = prg.expansion_count()
    result.attempted += 1
    try:
        with tracer.span("query"):
            rnd = timed("keygen", workload.keygen, query)
            shares = [timed("answer", workload.answer, rnd, party)
                      for party in range(workload.parties)]
            ok = timed("reconstruct", workload.reconstruct, rnd, shares)
    except Exception as exc:  # a failed query is counted, never fatal
        result.failed += 1
        result.failures.append(f"query {query}: {type(exc).__name__}: {exc}")
        return result
    finally:
        tracer.query = None
    if not ok:
        result.failed += 1
        result.failures.append(f"query {query}: wrong reconstructed value")
        return result
    result.phases.extend(phases)
    result.key_sizes.setdefault(rnd.kind, []).extend(rnd.key_sizes)
    _check_gates(workload, rnd, query, prg.expansion_count() - before, result)
    return result


def _check_gates(workload, rnd, query, expansions, result) -> None:
    want = workload.expansions_per_query(rnd)
    if want is not None and expansions != want:
        result.gate_failures.append(
            f"query {query}: {expansions} expand() calls, expected exactly {want}"
        )
    want_bytes = workload.key_bytes_expected(rnd)
    for size in rnd.key_sizes:
        if size != want_bytes:
            result.gate_failures.append(
                f"query {query}: key is {size} bytes, size model says {want_bytes}"
            )


def run_loop(workload: Workload, seconds: float, reference: bool = False) -> LoopResult:
    """Closed loop, one client: the next query starts when the last one ends."""
    result = LoopResult()
    start = time.perf_counter()
    query = 0
    while query == 0 or time.perf_counter() - start < seconds:
        run_query(workload, query, result=result, reference=reference)
        query += 1
    return result
