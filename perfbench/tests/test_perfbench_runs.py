"""Failure accounting, the gates, and a smoke run of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_tampered_share_is_a_counted_failure_not_a_crash():
    w = workloads.PointWorkload(seed=7, smoke=True)
    w.setup(None)
    honest, calls = w.answer, []

    def tampered(rnd, party):
        share = honest(rnd, party)
        calls.append(party)
        if len(calls) == 2 * w.parties + 1:  # party 0 of query 2
            share = share + w.modulus.one()
        return share

    w.answer = tampered
    result = workloads.LoopResult()
    for query in range(4):
        workloads.run_query(w, query, result=result)
    assert (result.attempted, result.failed) == (4, 1)
    assert "query 2" in result.failures[0]
    assert result.gate_failures == []


def test_exception_in_a_party_is_a_counted_failure():
    w = workloads.PirWorkload(seed=7, smoke=True)
    w.setup(None)

    def broken(rnd, party):
        raise RuntimeError("party offline")

    w.answer = broken
    result = workloads.run_query(w, 0)
    assert (result.attempted, result.failed) == (1, 1)
    assert "RuntimeError" in result.failures[0]


def test_wrong_expansion_count_and_key_size_fail_the_gates():
    w = workloads.PointWorkload(seed=7, smoke=True)
    w.setup(None)
    assert workloads.run_query(w, 0).gate_failures == []
    w.expansions_per_query = lambda rnd: 10
    w.key_bytes_expected = lambda rnd: 1
    gates = workloads.run_query(w, 0).gate_failures
    assert any("expand() calls" in g for g in gates)
    assert any("size model" in g for g in gates)


def traced_gate(w, after_loop=lambda: None):
    tracer, result = spans.Tracer(), workloads.LoopResult()
    with spans.instrument(tracer):
        for query in range(4):
            workloads.run_query(w, query, tracer, result=result)
        after_loop()
    m, _ = run.span_metrics(tracer, [], result.attempted)
    return run.attribution_problems(tracer, m)


def test_unwrapped_library_call_fails_the_trace_gate():
    from dpfkit import keyfile

    w = workloads.PointWorkload(seed=7, smoke=True)
    w.setup(None)
    assert traced_gate(w) == []
    unwrapped, honest = keyfile.key_from_bytes, w.answer

    def answer(rnd, party):
        for _ in range(20):
            unwrapped(rnd.keys[party])
        return honest(rnd, party)

    w.answer = answer
    problems = traced_gate(w)
    assert len(problems) == 1 and "in no traced layer" in problems[0]


def test_traced_call_outside_a_query_fails_the_trace_gate():
    from dpfkit import keyfile

    w = workloads.PointWorkload(seed=7, smoke=True)
    w.setup(None)
    blob = w.keygen(0).keys[0]
    problems = traced_gate(w, lambda: keyfile.key_from_bytes(blob))
    assert problems == ["traced calls outside any query: keyfile.key_from_bytes"]


def test_pir_gate_matches_the_acceptance_identity():
    w = workloads.PirWorkload(seed=1)
    assert (w.params.rows, w.params.cols) == (50, 5243)
    assert workloads.expected_expansions(w.params) == 35 + 7 * 50 * 20


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pir-p7-prime", "point-p3-crt", "cli-p3-crt"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    if not trace:
        assert any(line.startswith("error_rate = 0 ratio") for line in lines)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "point-p3-crt", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
