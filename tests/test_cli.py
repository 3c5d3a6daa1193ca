"""Command-line behavior: round trips, determinism, exit codes, output."""

import contextlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dpfkit
from dpfkit import baselines, cli, dcf, dpf
from dpfkit.cli import main
from dpfkit.dpf import DpfKey, PointDescription, SchemeParams, eval_all, eval_point
from dpfkit.errors import FormatError, GuardError
from dpfkit.keyfile import (
    SCHEMES,
    _pack_header,
    element_width,
    key_from_bytes,
    key_to_bytes,
    write_key_file,
)
from dpfkit.prg import (
    PRG_SHAKE128,
    PRG_TEST_LCG,
    DeterministicRandomSource,
    expand,
    expansion_count,
)
from dpfkit.pir import Database, write_database
from dpfkit.algebra import FieldVector, Modulus, parse_modulus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def keygen(capsys, tmp_path, *extra, scheme="ours", modulus="5", n=4, alpha=2, beta=3):
    out_dir = tmp_path / "keys"
    code, out, err = run(
        capsys,
        "keygen",
        "--scheme", scheme,
        "--N", str(n),
        "--p", "3",
        "--m", "1",
        "--modulus", modulus,
        "--alpha", str(alpha),
        "--beta", str(beta),
        "--out-dir", str(out_dir),
        *extra,
    )
    assert code == 0, err
    return out_dir, out


@pytest.mark.parametrize("scheme", ["ours", "boyle15", "trivial", "dcf"])
def test_keygen_eval_decode_round_trip(capsys, tmp_path, scheme):
    out_dir, out = keygen(capsys, tmp_path, "--seed", "t1", scheme=scheme)
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for i, line in enumerate(lines):
        party, path, size = line.split(",")
        assert int(party) == i
        assert path.endswith(f"key_{i}.dpfk")
        assert int(size) > 0
        code, out, _ = run(capsys, "inspect", "--key", path)
        assert (code, out.splitlines()[0]) == (0, f"scheme={scheme}")

    for x in range(4):
        shares = []
        for i in range(3):
            code, out, _ = run(capsys, "eval", "--key", str(out_dir / f"key_{i}.dpfk"), "--x", str(x))
            assert code == 0
            shares.append(out.strip())
        code, out, _ = run(capsys, "decode", "--inputs", ",".join(shares), "--modulus", "5")
        assert code == 0
        if scheme == "dcf":
            expected = 3 if x <= 2 else 0
        else:
            expected = 3 if x == 2 else 0
        assert out.strip() == str(expected)


def test_keygen_composite_modulus_lifted_output(capsys, tmp_path):
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t2", modulus="2*3*5", n=6, alpha=4, beta=23)
    shares = []
    for i in range(3):
        _, out, _ = run(capsys, "eval", "--key", str(out_dir / f"key_{i}.dpfk"), "--x", "4")
        shares.append(out.strip())
    _, out, _ = run(capsys, "decode", "--inputs", ",".join(shares), "--modulus", "30")
    assert out.strip() == "23"


def test_keygen_deterministic_with_seed(capsys, tmp_path):
    dir_a, _ = keygen(capsys, tmp_path / "a", "--seed", "same")
    dir_b, _ = keygen(capsys, tmp_path / "b", "--seed", "same")
    for i in range(3):
        assert (dir_a / f"key_{i}.dpfk").read_bytes() == (dir_b / f"key_{i}.dpfk").read_bytes()


def test_keygen_seeds_differ(capsys, tmp_path):
    dir_a, _ = keygen(capsys, tmp_path / "a", "--seed", "one")
    dir_b, _ = keygen(capsys, tmp_path / "b", "--seed", "two")
    assert (dir_a / "key_0.dpfk").read_bytes() != (dir_b / "key_0.dpfk").read_bytes()


def test_insecure_test_prg(capsys, tmp_path):
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t", "--insecure-test-prg")
    code, out, _ = run(capsys, "inspect", "--key", str(out_dir / "key_0.dpfk"))
    assert code == 0
    assert "prg=255" in out

    code, _, err = run(
        capsys,
        "keygen", "--scheme", "ours", "--N", "4", "--p", "3", "--m", "1",
        "--modulus", "5", "--alpha", "0", "--beta", "1",
        "--out-dir", str(tmp_path / "x"), "--insecure-test-prg",
    )
    assert code == 2
    assert "--seed" in err


def test_honest_majority_violation_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "keygen", "--scheme", "ours", "--N", "4", "--p", "3", "--m", "2",
        "--modulus", "5", "--alpha", "0", "--beta", "1",
        "--out-dir", str(tmp_path / "k"),
    )
    assert code == 2
    assert "m < p/2" in err


def test_too_few_distinct_seeds_exit_code(capsys, tmp_path):
    # 117 x 3 cells need distinct non-zero one-byte seeds, of which 255 exist.
    code, _, err = run(
        capsys,
        "keygen", "--N", "100000", "--p", "3", "--m", "1", "--modulus", "7",
        "--lambda", "8", "--alpha", "5", "--beta", "1", "--seed", "x",
        "--out-dir", str(tmp_path / "k"),
    )
    assert code == 2
    assert "351 cells exceed the 255 1-byte seeds" in err


def test_boyle15_keys_get_distinct_seeds_or_none(capsys, tmp_path):
    # A boyle15 row over 257 has 257 columns; drawn with replacement, a row
    # of 256 one-byte seeds held only about 158 distinct ones.
    code, _, err = run(
        capsys,
        "keygen", "--scheme", "boyle15", "--N", "50", "--p", "2", "--m", "1",
        "--modulus", "257", "--lambda", "8", "--alpha", "5", "--beta", "1",
        "--seed", "x", "--out-dir", str(tmp_path / "k"),
    )
    assert code == 2
    assert "257 cells exceed the 255 1-byte seeds" in err
    assert not (tmp_path / "k").exists()


def test_guard_exit_code(capsys, tmp_path):
    # q^(p-1) for p = 20000 has more digits than Python will print.
    for p, modulus in (("7", "257"), ("20000", "2147483647")):
        code, _, err = run(
            capsys,
            "keygen", "--scheme", "boyle15", "--N", "16", "--p", p, "--m", "3",
            "--modulus", modulus, "--alpha", "0", "--beta", "1",
            "--out-dir", str(tmp_path / "k"),
        )
        assert code == 4, err
        assert "exceeds the guard" in err


def test_eval_all_over_the_budget_exit_code(capsys, tmp_path, monkeypatch):
    # A 2.3 MB key whose header declares N = 2**32 on a 2**16 x 2**16 grid:
    # its full-domain output would take 2**35 bytes.
    side = 1 << 16
    modulus = parse_modulus("2")
    params = SchemeParams(3, 1, 128, modulus, side * side, side, side)
    key = DpfKey(
        party=0,
        params=params,
        seeds=np.ones((side, 2, 16), dtype=np.uint8),
        shares=np.zeros((1, side, 2), dtype=np.uint64),
        correction=np.zeros((1, side), dtype=np.uint64),
    )
    path = tmp_path / "huge.dpfk"
    write_key_file(path, key)

    def evaluated(*args, **kwargs):
        raise AssertionError("a row was evaluated past the budget")

    monkeypatch.setattr(dpfkit.dpf, "_combine_row", evaluated)
    code, out, err = run(capsys, "eval-all", "--key", str(path))
    assert code == 4, err
    assert out == ""
    assert "exceeds the budget" in err


def test_row_over_the_budget_is_refused_before_expanding(capsys, tmp_path, monkeypatch):
    # A 0.3 MB one-row key for p = 16385, m = 1 holds C(16384, 1) seeds, and
    # a point in column V-1 = 32768 expands each to 32769 words: 8 * 16384 *
    # 32769 bytes is just over EVAL_BUDGET.  Unbounded, that one point
    # would squeeze 16384 expansions of 32769 words.
    cols, held = 32769, 16384
    modulus = parse_modulus("2")
    params = SchemeParams(held + 1, 1, 128, modulus, cols, 1, cols)
    key = DpfKey(
        party=held,
        params=params,
        seeds=np.ones((1, held, 16), dtype=np.uint8),
        shares=np.ones((1, 1, held), dtype=np.uint64),
        correction=np.zeros((1, cols), dtype=np.uint64),
    )
    path = tmp_path / "wide-row.dpfk"
    write_key_file(path, key)
    before = expansion_count()
    for argv in (["eval", "--x", str(cols - 1)], ["eval-all"]):
        code, out, err = run(capsys, *argv, "--key", str(path))
        assert code == 4, err
        assert out == ""
        assert "refusing a row" in err
    assert expansion_count() == before

    # One column less is exactly at the budget, and the row is expanded.
    def expanded(*args):
        raise RuntimeError("expanded")

    monkeypatch.setattr(dpfkit.dpf, "expand", expanded)
    with pytest.raises(RuntimeError, match="expanded"):
        eval_point(key, cols - 2)


@pytest.mark.parametrize(
    "scheme, parties, corrupted, modulus",
    [
        ("ours", 16, 6, "2147483647"),
        ("ours", 16, 7, "2147483647"),
        ("ours", 14, 5, "2*3*5*7"),
        ("ours", 14, 6, "2*3*5*7"),
        ("dcf", 16, 7, "2147483647"),
        ("dcf", 14, 6, "2*3*5*7"),
        ("boyle15", 5, 1, "7"),
        ("boyle15", 6, 1, "5"),
        ("boyle15", 9, 1, "3"),
        ("boyle15", 13, 1, "2"),
    ],
)
def test_keygen_refuses_rows_that_evaluation_refuses(
    capsys, tmp_path, monkeypatch, refusing_rng, scheme, parties, corrupted, modulus
):
    # On the auto grid at N = 10**6 a row of these keys is over EVAL_BUDGET,
    # so eval-all would exit 4 on them: keygen exits 4 before drawing anything.
    monkeypatch.setattr(cli, "_make_rng", lambda args: refusing_rng)
    code, out, err = run(
        capsys,
        "keygen", "--scheme", scheme, "--N", str(10 ** 6), "--modulus", modulus,
        "--p", str(parties), "--m", str(corrupted), "--alpha", "0", "--beta", "1",
        "--seed", "x", "--out-dir", str(tmp_path / "k"),
    )
    assert (code, out) == (4, ""), err
    assert "refusing a row" in err
    assert not (tmp_path / "k").exists()


def test_trivial_key_off_the_chosen_grids_is_refused(capsys, tmp_path):
    # A 10**5 x 1 grid makes every row walk pay 10**5 Python row steps,
    # about 700x the auto grid's cost; such a file is malformed (exit 3).
    modulus = parse_modulus("7")
    params = SchemeParams.create(3, 1, modulus, 10 ** 5, grid=(10 ** 5, 1))
    point = PointDescription(5, modulus.element(3))
    key = baselines.trivial_gen(point, params, DeterministicRandomSource("narrow"))[0]
    path = tmp_path / "narrow.dpfk"
    write_key_file(path, key)
    for argv in (["eval", "--key", str(path), "--x", "5"], ["eval-all", "--key", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), err
        assert "trivial key grid 100000x1" in err

    # A huge declared domain is refused by the body-length check first.
    huge = replace(params, domain_size=1 << 40, rows=1 << 9, cols=1 << 31)
    blob = _pack_header(3, 0, huge) + bytes(100)
    path.write_bytes(blob)
    code, out, err = run(capsys, "eval", "--key", str(path), "--x", "0")
    assert (code, out) == (3, "") and "truncated" in err


@pytest.mark.parametrize("grid", ["auto", "square"])
def test_cli_written_trivial_keys_parse_and_evaluate(capsys, tmp_path, grid):
    out_dir, _ = keygen(
        capsys, tmp_path, "--seed", "g", "--grid", grid, scheme="trivial", n=10, alpha=6
    )
    total = 0
    for party in range(3):
        path = str(out_dir / f"key_{party}.dpfk")
        code, out, err = run(capsys, "eval-all", "--key", path)
        assert code == 0, err
        total += int(out.split()[6])
    assert total % 5 == 3


def test_evaluation_does_not_list_the_column_subsets(capsys, tmp_path):
    # A 16 KB key whose header declares p = 8001, m = 1: listing the
    # C(8001, 2) = 32 million column subsets would take gigabytes, but
    # evaluation only needs to know that parties 0..m hold column 0.
    modulus = parse_modulus("2")
    params = SchemeParams(8001, 1, 8, modulus, 1, 1, 1)
    rng = np.random.default_rng(5)
    seeds = rng.integers(1, 256, size=(1, 8000, 1), dtype=np.uint8)
    shares = rng.integers(0, 2, size=(1, 1, 8000), dtype=np.uint64)
    key = DpfKey(0, params, seeds, shares, np.ones((1, 1), dtype=np.uint64))
    blob = key_to_bytes(key)
    assert len(blob) == 16047
    key = key_from_bytes(blob)

    value = eval_point(key, 0).residues[0]
    assert eval_all(key).data.tolist() == [[value]]
    # party 0 is in column 0's subset, so it adds share 0 times the correction
    total = int(shares[0, 0, 0])
    for seed, share in zip(seeds[0], shares[0, 0]):
        total += int(share) * int(expand(seed.tobytes(), params.prg).data[0, 0])
    assert value == total % 2
    assert "layout" not in key.params.__dict__

    path = tmp_path / "wide.dpfk"
    path.write_bytes(blob)
    code, out, err = run(capsys, "eval", "--key", str(path), "--x", "0")
    assert code == 0, err
    assert out == f"{value}\n"


@pytest.mark.parametrize("factors,error", [
    ((2147483629, 2147483647), FormatError),  # composite modulus
    ((2147483647,), GuardError),  # q^(p-1) columns over COLUMN_GUARD
])
def test_crafted_boyle_header_refused_before_the_column_count(factors, error):
    # A boyle15 key for p = 65535 with one empty row: boyle_gen refuses
    # both headers, and q^(p-1) alone is a two-million-bit integer whose
    # power peaks at about 1.2 MB, against a few KB for the refusal.
    modulus = Modulus(factors)
    params = SchemeParams(65535, 1, 128, modulus, 1, 1, 1)
    blob = _pack_header(2, 0, params) + bytes(4) + bytes(element_width(modulus))
    tracemalloc.start()
    try:
        with pytest.raises(error):
            key_from_bytes(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_hostile_boyle_body_length_is_refused_before_allocation():
    # 2^32 - 1 rows of 1021 * 1020 records pass the column guard, and
    # their body would be about 10^17 bytes; the file holds eight.
    modulus = Modulus((1021,))
    params = SchemeParams(3, 1, 128, modulus, 1, 2 ** 32 - 1, 1)
    blob = _pack_header(2, 0, params) + bytes(8)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            key_from_bytes(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_format_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.dpfk"
    bad.write_bytes(b"not a key")
    code, _, err = run(capsys, "eval", "--key", str(bad), "--x", "0")
    assert code == 3


@pytest.mark.parametrize("scheme", ["ours", "dcf", "boyle15", "trivial"])
def test_party_out_of_range_exit_code(capsys, tmp_path, scheme):
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t5", scheme=scheme)
    path = out_dir / "key_0.dpfk"
    blob = bytearray(path.read_bytes())
    for party in (3, 7):  # the header's u16 party field; the keys are for p=3
        blob[6:8] = party.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        for argv in (["eval", "--x", "0"], ["eval-all"], ["inspect"]):
            code, out, err = run(capsys, argv[0], "--key", str(path), *argv[1:])
            assert code == 3, (argv, out, err)
            assert f"party {party} out of range" in err


def test_grid_not_covering_domain_exit_code(capsys, tmp_path):
    # Every subcommand that reads a key refuses a header whose R x V grid
    # is smaller than its domain; `inspect` used to print such a header.
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t6")
    path = out_dir / "key_0.dpfk"
    blob = bytearray(path.read_bytes())
    rows = int.from_bytes(blob[22:26], "little")
    cols = int.from_bytes(blob[26:30], "little")
    blob[14:22] = (rows * cols + 1).to_bytes(8, "little")  # the u64 domain field
    path.write_bytes(bytes(blob))
    for argv in (["eval", "--x", "0"], ["eval-all"], ["inspect"]):
        code, out, err = run(capsys, argv[0], "--key", str(path), *argv[1:])
        assert code == 3, (argv, out, err)
        assert out == ""
        assert "does not cover domain" in err


def test_out_of_memory_exit_code(capsys, tmp_path, monkeypatch):
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t7")

    def out_of_memory(key):
        raise MemoryError()

    monkeypatch.setattr(dpfkit.dpf, "eval_rows", out_of_memory)
    code, out, err = run(capsys, "eval-all", "--key", str(out_dir / "key_0.dpfk"))
    assert code == 5
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().split("\n")) == 1


def test_unexpected_exception_exit_code(capsys, tmp_path, monkeypatch):
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t7")

    def broken(key):
        raise RuntimeError("evaluator broke")

    monkeypatch.setattr(dpfkit.dpf, "eval_rows", broken)
    code, out, err = run(capsys, "eval-all", "--key", str(out_dir / "key_0.dpfk"))
    assert code == 5
    assert out == ""
    assert err == "error: RuntimeError: evaluator broke\n"


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "eval", "--key", str(tmp_path / "nope"), "--x", "0")
    assert code == 3


@pytest.mark.parametrize("scheme", ["ours", "dcf", "boyle15", "trivial"])
def test_eval_all_stdout_and_file(capsys, tmp_path, scheme):
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t3", scheme=scheme)
    key = str(out_dir / "key_1.dpfk")
    code, out, _ = run(capsys, "eval-all", "--key", key)
    assert code == 0
    stdout_values = [int(v) for v in out.strip().split("\n")]
    assert len(stdout_values) == 4
    for x, value in enumerate(stdout_values):
        code, out, _ = run(capsys, "eval", "--key", key, "--x", str(x))
        assert code == 0
        assert int(out) == value

    share_file = tmp_path / "shares.bin"
    code, out, _ = run(capsys, "eval-all", "--key", key, "--out", str(share_file))
    assert code == 0
    from dpfkit.pir import read_database

    back = read_database(share_file, parse_modulus("5"))
    assert back.entries.lift_all() == stdout_values


GENERATORS = {
    "ours": dpf.gen,
    "dcf": dcf.dcf_gen,
    "boyle15": baselines.boyle_gen,
    "trivial": baselines.trivial_gen,
}


@pytest.mark.parametrize("scheme", sorted(GENERATORS))
@pytest.mark.parametrize("prg_algorithm", [PRG_SHAKE128, PRG_TEST_LCG])
@pytest.mark.parametrize("domain,grid", [
    (1, (1, 1)),  # one point
    (5, (1, 8)),  # fewer points than columns
    (7, (3, 3)),  # a last row of one point
])
def test_eval_all_streams_what_eval_all_returns(
    capsys, tmp_path, scheme, prg_algorithm, domain, grid
):
    modulus = parse_modulus("7" if scheme == "boyle15" else "2*3*5*7")
    params = SchemeParams.create(3, 1, modulus, domain, grid=grid, prg_algorithm=prg_algorithm)
    point = PointDescription(domain // 2, modulus.element(6))
    rng = DeterministicRandomSource(f"stream-{scheme}-{domain}")
    # A trivial key file must be on the auto or square grid; (1, 8) for
    # N = 5 is neither, so its files are refused as malformed.
    refused = scheme == "trivial" and grid not in [
        dpf.choose_grid(domain, 3, 1, 128, modulus, mode) for mode in ("auto", "square")
    ]
    for key in GENERATORS[scheme](point, params, rng):
        path = tmp_path / f"key_{key.party}.dpfk"
        write_key_file(path, key)
        vector = eval_all(key)
        code, out, err = run(capsys, "eval-all", "--key", str(path))
        if refused:
            assert (code, out) == (3, "") and "trivial key grid 1x8" in err
            continue
        assert code == 0, err
        assert out == "\n".join(map(str, vector.lift_all())) + "\n"

        streamed, whole = tmp_path / "streamed.bin", tmp_path / "whole.bin"
        code, out, err = run(capsys, "eval-all", "--key", str(path), "--out", str(streamed))
        assert (code, out) == (0, f"{streamed}\n"), err
        write_database(whole, Database(modulus, vector))
        assert streamed.read_bytes() == whole.read_bytes()


class _Sink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("scheme", ["ours", "dcf"])
def test_eval_all_holds_less_than_one_full_domain_output(tmp_path, scheme):
    # An output of 2**16 uint64 residues takes 512 KiB; the key takes about
    # 10 KB, so a streamed eval-all holds far less than the output.
    domain = 1 << 16
    modulus = parse_modulus("2147483647")
    params = SchemeParams.create(3, 1, modulus, domain)
    point = PointDescription(12345, modulus.element(5))
    key = GENERATORS[scheme](point, params, DeterministicRandomSource("memory"))[1]
    path = tmp_path / "key.dpfk"
    write_key_file(path, key)
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["eval-all", "--key", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 2 * domain
    assert peak < 8 * len(modulus.factors) * domain


def test_inspect_fields(capsys, tmp_path):
    out_dir, _ = keygen(capsys, tmp_path, "--seed", "t4", modulus="2*3*5", n=10)
    code, out, _ = run(capsys, "inspect", "--key", str(out_dir / "key_2.dpfk"))
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert fields["scheme"] == "ours"
    assert fields["party"] == "2"
    assert fields["parties"] == "3"
    assert fields["corrupted"] == "1"
    assert fields["domain"] == "10"
    assert fields["modulus"] == "2*3*5"
    assert int(fields["rows"]) * int(fields["cols"]) >= 10


def test_keygen_offers_exactly_the_scheme_table():
    assert sorted(cli._SCHEME_GENERATORS) == sorted(s.name for s in SCHEMES.values())


def test_decode_validation(capsys):
    code, _, err = run(capsys, "decode", "--inputs", "1,x", "--modulus", "5")
    assert code == 2
    code, _, _ = run(capsys, "decode", "--inputs", "", "--modulus", "5")
    assert code == 2


def test_bench_size_stdout_and_file(capsys, tmp_path):
    code, out, err = run(
        capsys, "bench-size", "--figure", "domain", "--N", "1000",
        "--x-values", "100,1000,1000000000000000000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "scheme,x,bits"
    assert "trivial,1000,31000" in lines
    # 10^18 sizes only because the grid search skips most row counts.
    assert any(line.startswith("ours,1000000000000000000,") for line in lines)
    assert "smaller than the bunn-it model" in err

    csv_path = tmp_path / "fig.csv"
    code, out, _ = run(
        capsys, "bench-size", "--figure", "domain", "--N", "1000",
        "--x-values", "100", "--csv", str(csv_path),
    )
    assert code == 0
    assert out.strip() == str(csv_path)
    assert csv_path.read_text().startswith("scheme,x,bits\n")


def test_bench_size_with_formula(capsys):
    code, out, _ = run(
        capsys, "bench-size", "--figure", "parties", "--N", "100",
        "--x-values", "3", "--bunn-prg-formula", "N * p",
    )
    assert code == 0
    assert "bunn-prg,3,300" in out


def test_bench_size_bad_formula(capsys):
    for formula in (
        "__import__('os')", "1/0", "sqrt(-1)", "binom(N, -1)", "10**400*1.0",
        "binom(10**6, 5*10**5)",
    ):
        code, _, err = run(
            capsys, "bench-size", "--figure", "domain", "--N", "100",
            "--x-values", "100", "--bunn-prg-formula", formula,
        )
        assert code == 2, formula
        assert err.startswith("error: "), formula
    # A power that would never finish computing runs in a child process,
    # so that a regression fails on the timeout instead of hanging.
    src = Path(dpfkit.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-m", "dpfkit.cli", "bench-size", "--figure", "domain",
         "--x-values", "100", "--bunn-prg-formula", "N**N**N"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert child.returncode == 2
    assert child.stderr.startswith("error: ")


def test_bench_size_bad_x_values(capsys):
    code, _, err = run(
        capsys, "bench-size", "--figure", "domain", "--N", "100",
        "--x-values", "100,abc",
    )
    assert code == 2
    assert "--x-values" in err


@pytest.mark.parametrize("argv", [
    ("--figure", "parties", "--m", "5", "--x-values", "3"),
    ("--figure", "parties", "--x-values", "1"),
    ("--figure", "domain", "--N", "100", "--x-values", "100", "--c-it", "nan"),
    ("--figure", "domain", "--N", "100", "--x-values", "100", "--c-it", "-3"),
    # sizes past the float range: C(2000, 1000) columns, and q^39 at q = 2^31-1
    ("--figure", "parties", "--x-values", "3,2000"),
    ("--figure", "modulus", "--p", "40"),
    # seed lengths that keygen refuses
    ("--figure", "domain", "--lambda", "12"),
    ("--figure", "domain", "--lambda", "0"),
])
def test_bench_size_bad_parameters(capsys, argv):
    code, out, err = run(capsys, "bench-size", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("figure,low,high", [
    ("domain", "100", "1000"), ("parties", "3", "5"),
    ("modulus", "6", "7"), ("primorial", "6", "30"),
])
def test_bench_size_dedupes_x_values(capsys, figure, low, high):
    argv = ("bench-size", "--figure", figure, "--N", "100", "--x-values")
    code, once, _ = run(capsys, *argv, f"{low},{high}")
    assert code == 0
    code, repeated, _ = run(capsys, *argv, f"{high},{low},{high},{low}")
    assert code == 0
    assert repeated == once
    assert len(set(once.splitlines())) == len(once.splitlines())


def test_pir_demo(capsys, tmp_path):
    m = parse_modulus("257")
    db_path = tmp_path / "demo.db"
    write_database(db_path, Database(m, FieldVector(m, [list(range(100, 150))])))
    code, out, _ = run(
        capsys, "pir-demo", "--db", str(db_path), "--modulus", "257",
        "--index", "17", "--p", "3", "--m", "1", "--seed", "s",
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert fields["value"] == "117"
    assert int(fields["upload_bits"]) > 0
    assert int(fields["download_bits"]) == 3 * 8 * 2
    assert int(fields["trivial_bits"]) == 50 * 9


def test_pir_demo_refuses_the_test_prg_flag(capsys, tmp_path):
    # pir-demo always runs SHAKE-128; the test PRG flag belongs to keygen.
    m = parse_modulus("5")
    db_path = tmp_path / "demo.db"
    write_database(db_path, Database(m, FieldVector(m, [[1, 2, 3, 4]])))
    with pytest.raises(SystemExit) as exc:
        main([
            "pir-demo", "--db", str(db_path), "--modulus", "5", "--index", "0",
            "--p", "3", "--m", "1", "--seed", "s", "--insecure-test-prg",
        ])
    assert exc.value.code == 2
    assert "--insecure-test-prg" in capsys.readouterr().err


def test_pir_demo_dishonest_majority_rejected(capsys, tmp_path):
    m = parse_modulus("5")
    db_path = tmp_path / "demo.db"
    write_database(db_path, Database(m, FieldVector(m, [[1, 2, 3, 4]])))
    code, _, err = run(
        capsys, "pir-demo", "--db", str(db_path), "--modulus", "5",
        "--index", "0", "--p", "4", "--m", "2", "--seed", "s",
    )
    assert code == 2
    assert "m < p/2" in err
