"""dpfkit query benchmark.

    python3 perfbench/run.py --workload pir-p7-prime --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop with one client in this process and
prints every metric by name with its unit.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones, taken from a separate run whose calls into dpfkit are
wrapped in spans.  `--smoke` shrinks every size so that a run takes seconds.

The library is imported from `src/` beside this directory; the run exits
with code 2 and prints no result when it is not there.  Scratch files
(key files, spans, result records) go under `.perfbench/` at the root.
See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import ssl
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
TRACE_BLOCK = 4  # one full cycle of point-p3-crt's query kinds
IMPORT_REPEATS = 5
CALIB_REPEATS = 5
# The most of the query spans the benchmark's own code may take in a
# trace run.  Measured: 0.3% on pir, 0.8% on point, 3.3% on cli (which
# parses eval-all's text output).
BENCH_SELF_MAX_PCT = 10.0

# (name, unit) in the order they are printed; BENCHMARK.json lists the same.
# Latencies and throughput are speed-adjusted ("adj"): each query phase is
# scaled by the machine's momentary speed, read from a fixed reference
# kernel timed beside it.  The test machine's own speed drifts by 25-50%
# over seconds to minutes, more than any bound could absorb (README.md).
# The raw figures are printed beside them.
END_TO_END = [
    ("setup_s", "s"),
    ("queries_adj_per_s", "1/s"),
    ("query_adj_p50_ms", "ms"),
    ("keygen_adj_p50_ms", "ms"),
    ("answer_adj_p50_ms", "ms"),
    ("answer_adj_p90_ms", "ms"),
    ("key_bytes", "B"),
    ("peak_rss_mb", "MB"),
]

LAYER_ERRORS = [(f"{layer}.errors", "count") for layer in spans.LAYERS]

PER_LAYER = [
    ("prg.expand.calls", "count/query"),
    ("prg.expand.ms", "ms"),
    ("prg.ns_per_element", "ns"),
    ("dpf.gen.self_ms", "ms"),
    ("dpf.eval_all.self_ms", "ms"),
    ("dpf.eval_point.self_ms", "ms"),
    ("dcf.dcf_gen.self_ms", "ms"),
    ("dcf.dcf_eval.self_ms", "ms"),
    ("keyfile.key_to_bytes.ms", "ms"),
    ("keyfile.key_from_bytes.ms", "ms"),
    ("keyfile.key_from_bytes.mb_per_s", "MB/s"),
    ("keyfile.bytes", "B"),
    ("pir.pir_answer.self_ms", "ms"),
    ("pir.pir_answer.peak_alloc_mb", "MB"),
    ("algebra.lift_all.ms", "ms"),
    ("algebra.lift_all.values", "count"),
    ("cli.import_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.stdout_bytes", "B"),
    *LAYER_ERRORS,
    ("trace.overhead_pct", "%"),
    ("trace.layer_self_pct", "%"),
    ("trace.bench_self_pct", "%"),
    ("calib.gen_s", "s"),
    ("calib.eval_all_s", "s"),
    ("calib.eval_point_ms", "ms"),
    ("calib.key_to_bytes_ms", "ms"),
    ("calib.key_from_bytes_ms", "ms"),
]

# ROADMAP baseline at p=7, m=3, q=2^31-1, N=10^6 (grid 99x10102), printed
# beside the calibration pass so a machine's offset is recorded.
ROADMAP_FIGURES = {
    "calib.gen_s": 0.24,
    "calib.eval_all_s": 0.54,
    "calib.eval_point_ms": 4.9,
    "calib.key_to_bytes_ms": 56.0,
    "calib.key_from_bytes_ms": 68.0,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pir-p7-prime", "point-p3-crt", "cli-p3-crt"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return ap.parse_args(argv)


def import_library():
    """Import dpfkit from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import dpfkit

    if Path(dpfkit.__file__).resolve().parent != SRC / "dpfkit":
        raise ImportError(f"dpfkit resolved to {dpfkit.__file__}, not {SRC}")
    import workloads

    return workloads


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


# --------------------------------------------------------------------------
# Environment record


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openssl": ssl.OPENSSL_VERSION,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "command": [sys.executable, *sys.argv],
    }


# --------------------------------------------------------------------------
# Untraced run: the end-to-end metrics


def timed_setups(make, workloads, workdir: Path, problems: list):
    """Set the workload up SETUP_REPEATS times.

    Returns the workload and each set-up's (raw, speed-adjusted) seconds.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w = make()
        w.setup(workdir)
        warm = workloads.run_query(w, -1 - rep)
        raw = time.perf_counter() - t0
        times.append((raw, raw * workloads.speed_factor()))
        problems += [f"warm-up {f}" for f in warm.failures + warm.gate_failures]
    return w, times


def end_to_end(args, workloads, import_s: float, workdir: Path):
    import_adj = import_s * workloads.speed_factor()
    cls = workloads.WORKLOADS[args.workload]
    problems: list[str] = []
    w, setups = timed_setups(lambda: cls(args.seed, smoke=args.smoke), workloads,
                             workdir, problems)
    loop = workloads.run_loop(w, args.seconds, reference=True)
    problems += loop.gate_failures
    adj_queries = loop.query_times(adjusted=True)
    adj_keygen = loop.times("keygen", adjusted=True)
    adj_answer = loop.times("answer", adjusted=True)
    metrics = {
        "setup_s": import_adj + median([adj for _, adj in setups]),
        "queries_adj_per_s": len(adj_queries) / sum(adj_queries) if adj_queries else 0.0,
        "query_adj_p50_ms": 1e3 * median(adj_queries),
        "keygen_adj_p50_ms": 1e3 * median(adj_keygen),
        "answer_adj_p50_ms": 1e3 * median(adj_answer),
        "answer_adj_p90_ms": 1e3 * percentile(adj_answer, 90),
        # Each query kind weighs the same, so the figure is exact whatever
        # the number of queries a run completes.
        "key_bytes": statistics.fmean(map(statistics.fmean, loop.key_sizes.values()))
                     if loop.key_sizes else 0.0,
        "peak_rss_mb": peak_rss_mb(include_children=args.workload == "cli-p3-crt"),
    }
    raw_queries, raw_keygen, raw_answer = (
        loop.query_times(), loop.times("keygen"), loop.times("answer"))
    n_answer = len(raw_answer)
    notes = {
        "setup_s": f"speed-adjusted import + median of {SETUP_REPEATS} set-ups, each with "
                   f"one warm-up query; raw import {import_s:.3f} s, set-ups "
                   f"{', '.join(f'{raw:.3f}' for raw, _ in setups)} s",
        "queries_adj_per_s": f"{loop.correct_queries} correct queries; raw "
                             f"{len(raw_queries) / sum(raw_queries) if raw_queries else 0:.6g} 1/s; "
                             "closed loop, one client",
        "query_adj_p50_ms": f"n={len(raw_queries)}, raw {1e3 * median(raw_queries):.6g} ms; "
                            f"serial sum over {w.parties} parties",
        "keygen_adj_p50_ms": f"n={len(raw_keygen)}, raw {1e3 * median(raw_keygen):.6g} ms",
        "answer_adj_p50_ms": f"n={n_answer}, raw {1e3 * median(raw_answer):.6g} ms; "
                             "one party's decode + evaluate",
        "answer_adj_p90_ms": f"n={n_answer}, {n_answer - int(0.9 * n_answer)} samples above "
                             f"p90, raw {1e3 * percentile(raw_answer, 90):.6g} ms",
        "key_bytes": "mean serialized key, each query kind weighted equally: "
                     + ", ".join(f"{k} {statistics.fmean(v):.0f} B x{len(v)}"
                                 for k, v in loop.key_sizes.items()),
        "peak_rss_mb": "ru_maxrss" + (" of this process and its children"
                                      if args.workload == "cli-p3-crt" else ""),
    }
    for name, unit in END_TO_END:
        print(f"{name} = {metrics[name]:.6g} {unit}  ({notes[name]})")
    refs = [p[3] for p in loop.phases]
    print(f"reference kernel: median {1e3 * median(refs):.4g} ms over {len(refs)} phases, "
          f"nominal {1e3 * workloads.REFERENCE_NOMINAL_S:.4g} ms")
    rate = loop.failed / loop.attempted
    print(f"error_rate = {rate:.6g} ratio  ({loop.failed} failed / {loop.attempted} attempted;"
          " carried by the result's failed/attempted fields)")
    if not loop.phases:
        problems.append("no query succeeded")
    return metrics, loop, problems


# --------------------------------------------------------------------------
# Traced run: the per-layer metrics


def calibrate(seed: int, smoke: bool) -> dict:
    """Time the ROADMAP baseline calls at p=7, m=3, q=2^31-1, N=10^6."""
    import random

    from dpfkit import algebra, dpf, keyfile, prg

    modulus = algebra.Modulus.prime(2 ** 31 - 1)
    n = 10 ** 4 if smoke else 10 ** 6
    params = dpf.SchemeParams.create(7, 3, modulus, n)
    rr = random.Random(f"calib/{seed}")
    point = dpf.PointDescription(alpha=rr.randrange(n), beta=modulus.element(rr.randrange(1, 1000)))

    def timed(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0

    keys, gen_s = timed(dpf.gen, point, params, prg.DeterministicRandomSource(f"calib/{seed}"))
    _, eval_all_s = timed(dpf.eval_all, keys[0])
    point_s, to_s, from_s = [], [], []
    for _ in range(CALIB_REPEATS):
        point_s.append(timed(dpf.eval_point, keys[0], point.alpha)[1])
        blob, t = timed(keyfile.key_to_bytes, keys[0])
        to_s.append(t)
        from_s.append(timed(keyfile.key_from_bytes, blob)[1])
    print(f"calibration grid {params.rows}x{params.cols}, key {len(blob)} B")
    return {
        "calib.gen_s": gen_s,
        "calib.eval_all_s": eval_all_s,
        "calib.eval_point_ms": median(point_s) * 1e3,
        "calib.key_to_bytes_ms": median(to_s) * 1e3,
        "calib.key_from_bytes_ms": median(from_s) * 1e3,
    }


def cli_import_ms(env: dict) -> float:
    """Fresh `import dpfkit.cli` minus `python -c pass`, medians of IMPORT_REPEATS."""
    runs: dict[str, list[float]] = {"pass": [], "import dpfkit.cli": []}
    for _ in range(IMPORT_REPEATS):
        for code, times in runs.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=120)
            times.append(time.perf_counter() - t0)
    return (median(runs["import dpfkit.cli"]) - median(runs["pass"])) * 1e3


def span_metrics(tracer, stdout_sizes: list[int], queries: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced loop's spans, plus self ms per query by layer."""
    selfs = spans.self_times(tracer.spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name):
        return [tracer.spans[i].duration for i in by_name.get(name, ())]

    def self_ms(name):
        return median([selfs[i] for i in by_name.get(name, ())]) / 1e6

    def sizes(name):
        return [tracer.spans[i].size for i in by_name.get(name, ())]

    expand_ns = durations("prg.expand")
    expand_elements = sum(sizes("prg.expand"))
    from_ns = durations("keyfile.key_from_bytes")
    to_sizes = sizes("keyfile.key_to_bytes")
    m = {
        "prg.expand.calls": len(expand_ns) / queries,
        "prg.expand.ms": median(expand_ns) / 1e6,
        "prg.ns_per_element": sum(expand_ns) / expand_elements if expand_elements else 0.0,
        "keyfile.key_to_bytes.ms": median(durations("keyfile.key_to_bytes")) / 1e6,
        "keyfile.key_from_bytes.ms": median(from_ns) / 1e6,
        "keyfile.key_from_bytes.mb_per_s":
            sum(sizes("keyfile.key_from_bytes")) / (sum(from_ns) / 1e9) / 1e6 if from_ns else 0.0,
        "keyfile.bytes": statistics.fmean(to_sizes) if to_sizes else 0.0,
        "algebra.lift_all.ms": median(durations("algebra.lift_all")) / 1e6,
        "algebra.lift_all.values": median(sizes("algebra.lift_all")),
        "cli.stdout_bytes": median(stdout_sizes),
    }
    for name in ("dpf.gen", "dpf.eval_all", "dpf.eval_point", "dcf.dcf_gen",
                 "dcf.dcf_eval", "pir.pir_answer", "cli.main"):
        m[f"{name}.self_ms"] = self_ms(name)

    layer_self: dict[str, float] = {}
    errors = {name: 0 for name, _ in LAYER_ERRORS}
    for s, own in zip(tracer.spans, selfs):
        key = "bench" if s.name in spans.BENCH_SPANS else s.layer
        layer_self[key] = layer_self.get(key, 0) + own
        if s.error and s.name not in spans.BENCH_SPANS:
            errors[f"{s.layer}.errors"] += 1
    m.update(errors)
    query_total = sum(durations("query"))
    bench = layer_self.get("bench", 0)
    m["trace.bench_self_pct"] = 100 * bench / query_total
    m["trace.layer_self_pct"] = 100 * (sum(layer_self.values()) - bench) / query_total
    per_query_ms = {k: v / 1e6 / queries for k, v in layer_self.items()}
    per_query_ms["query"] = query_total / 1e6 / queries
    return m, per_query_ms


def attribution_problems(tracer, m: dict) -> list[str]:
    """The trace gate: every traced call lies in a query, and the layers cover the queries.

    `trace.bench_self_pct` is the time inside query spans that no wrapped
    layer accounts for: the benchmark's own loop and checks, plus any
    dpfkit call made through a binding that `spans.instrument` misses.
    """
    problems = []
    strays = sorted({s.name for s in tracer.spans if s.parent is None and s.name != "query"})
    if strays:
        problems.append(f"traced calls outside any query: {', '.join(strays)}")
    if m["trace.bench_self_pct"] > BENCH_SELF_MAX_PCT:
        problems.append(f"{m['trace.bench_self_pct']:.1f}% of the query spans is in no traced "
                        f"layer (limit {BENCH_SELF_MAX_PCT}%)")
    return problems


def per_layer(args, workloads, workdir: Path):
    cls = workloads.WORKLOADS[args.workload]
    is_cli = cls is workloads.CliWorkload
    w = cls(args.seed, smoke=args.smoke, **({"in_process": True} if is_cli else {}))
    w.setup(workdir)
    warm = workloads.run_query(w, -1)
    problems = [f"warm-up {f}" for f in warm.failures + warm.gate_failures]

    # Blocks of TRACE_BLOCK queries alternate between untraced and traced,
    # so both see the same drift in machine speed.
    plain, traced = workloads.LoopResult(), workloads.LoopResult()
    tracer = spans.Tracer()
    start = time.perf_counter()
    query = 0
    while query < 2 * TRACE_BLOCK or time.perf_counter() - start < args.seconds:
        if (query // TRACE_BLOCK) % 2:
            with spans.instrument(tracer):
                workloads.run_query(w, query, tracer, result=traced)
        else:
            workloads.run_query(w, query, result=plain)
        query += 1
    for loop in (plain, traced):
        problems += loop.gate_failures

    m, per_query_ms = span_metrics(tracer, w.stdout_sizes if is_cli else [], traced.attempted)
    plain_q, traced_q = plain.query_times(), traced.query_times()
    m["trace.overhead_pct"] = (
        100 * (statistics.fmean(traced_q) / statistics.fmean(plain_q) - 1)
        if plain_q and traced_q else 0.0)
    m["pir.pir_answer.peak_alloc_mb"] = (
        w.answer_peak_alloc_mb() if isinstance(w, workloads.PirWorkload) else 0.0)
    m.update(calibrate(args.seed, args.smoke))
    m["cli.import_ms"] = cli_import_ms(workloads.child_env())

    problems += attribution_problems(tracer, m)

    q = per_query_ms["query"]
    print(f"traced {traced.attempted} queries ({traced.failed} failed), untraced "
          f"{plain.attempted} ({plain.failed} failed); query span {q:.2f} ms mean; "
          "queries are serial sums over parties")
    print("self time per query by layer (ms, share of the query span):")
    for layer in ("bench", *spans.LAYERS):
        own = per_query_ms.get(layer, 0.0)
        print(f"  {layer:8s} {own:10.3f} ms  {100 * own / q:6.2f}%")
    print("waited time: not reported; dpfkit has no queues, so no layer waits")
    for name, unit in PER_LAYER:
        extra = f"  (ROADMAP {ROADMAP_FIGURES[name]} {unit})" if name in ROADMAP_FIGURES else ""
        print(f"{name} = {m[name]:.6g} {unit}{extra}")

    tracer.write_jsonl(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    merged = workloads.LoopResult(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        failures=plain.failures + traced.failures,
    )
    return m, merged, problems


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        workloads = import_library()
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            metrics, loop, problems = per_layer(args, workloads, workdir)
            names = PER_LAYER
        else:
            metrics, loop, problems = end_to_end(args, workloads, import_s, workdir)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (loop.failures + problems)[:20]:
        print(f"FAIL {line}")
    correct = loop.failed == 0 and not problems
    record = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "env": env, "failures": loop.failures, "problems": problems,
                   "phases": loop.phases}, fh)
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
