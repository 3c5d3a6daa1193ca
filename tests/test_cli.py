"""Command-line behavior: round trips, determinism, exit codes, output."""

import pytest

from dpfkit.cli import main
from dpfkit.pir import Database, write_database
from dpfkit.algebra import parse_modulus


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


def test_guard_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "keygen", "--scheme", "boyle15", "--N", "16", "--p", "7", "--m", "3",
        "--modulus", "257", "--alpha", "0", "--beta", "1",
        "--out-dir", str(tmp_path / "k"),
    )
    assert code == 4
    assert "exceeds the guard" in err


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


def test_decode_validation(capsys):
    code, _, err = run(capsys, "decode", "--inputs", "1,x", "--modulus", "5")
    assert code == 2
    code, _, _ = run(capsys, "decode", "--inputs", "", "--modulus", "5")
    assert code == 2


def test_bench_size_stdout_and_file(capsys, tmp_path):
    code, out, err = run(
        capsys, "bench-size", "--figure", "domain", "--N", "1000",
        "--x-values", "100,1000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "scheme,x,bits"
    assert "trivial,1000,31000" in lines
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
    code, _, err = run(
        capsys, "bench-size", "--figure", "domain", "--N", "100",
        "--x-values", "100", "--bunn-prg-formula", "__import__('os')",
    )
    assert code == 2


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
])
def test_bench_size_bad_parameters(capsys, argv):
    code, out, err = run(capsys, "bench-size", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_pir_demo(capsys, tmp_path):
    m = parse_modulus("257")
    db_path = tmp_path / "demo.db"
    write_database(db_path, Database.from_ints(list(range(100, 150)), m))
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


def test_pir_demo_dishonest_majority_rejected(capsys, tmp_path):
    m = parse_modulus("5")
    db_path = tmp_path / "demo.db"
    write_database(db_path, Database.from_ints([1, 2, 3, 4], m))
    code, _, err = run(
        capsys, "pir-demo", "--db", str(db_path), "--modulus", "5",
        "--index", "0", "--p", "4", "--m", "2", "--seed", "s",
    )
    assert code == 2
    assert "m < p/2" in err
