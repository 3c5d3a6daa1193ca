"""Hostile inputs: library calls and commands whose parameters, key files
or database files would make dpfkit allocate or work without bound.

Each table runs once in a child process capped at 1 GiB of address space,
with every read of randomness failing, so a refusal that comes too late
fails its row instead of the runner.  Each row must be refused within a
second: a library call with the exception its row names, a command with its
documented exit code and one short `error: ...` line, printing nothing and
writing no keys.  Every value-taking option of every command is named by
some row, or exempted with a reason.
"""

import argparse
import json
import os
from math import isqrt

import pytest

from dpfkit import cli
from dpfkit.algebra import FieldElement, FieldVector, Modulus, minimize_grid
from dpfkit.baselines import TrivialKey
from dpfkit.dpf import (
    DpfKey,
    PointDescription,
    SchemeParams,
    check_party_counts,
    check_seed_coverage,
    eval_point,
    gen,
    simulate_coalition_view,
)
from dpfkit.errors import DpfError
from dpfkit.keyfile import _pack_header, element_width, header_size, parse_header, write_key_file
from dpfkit.pir import Database, write_database
from dpfkit.prg import DeterministicRandomSource, PrgSpec, expand, seed_size

# name -> (the exception it must raise, the call).
# At p = 65535, m = 1 the layout alone would take 8 GiB, and a full seed
# table on 6170930 rows 296 MB.  At p = 26, m = 12 the layout would take
# 2.57 GB beside 5.82 GB of cells, and the sized primitives would each
# allocate far past the budget.  The 502,002 cells of 8191-byte seeds on a
# square grid for N = 2.8e10 were once charged 4.22 GB of tables, under the
# budget, but their seed draw peaks at three times the seeds, 12.3 GB.
# Reading /dev/zero to its end once ended in MemoryError.
LIBRARY = {
    "simulator at p = 65535": ("GuardError", "simulate_coalition_view(wide, (0,), Refusing())"),
    "layout at p = 65535": ("GuardError", "wide.layout"),
    "simulator on 6170930 rows": ("GuardError", "simulate_coalition_view(tall, (0,), Refusing())"),
    "layout at p = 26, m = 12": ("GuardError", "deep.layout"),
    "gen with 8191-byte seeds": ("GuardError", "gen(point, long_seeds, Refusing())"),
    "sample_seeds": ("GuardError", "sample_seeds(2 ** 36, 128, Refusing())"),
    "FieldVector.random": ("GuardError", "FieldVector.random(seven, 2 ** 36, Refusing())"),
    "random_residues": (
        "GuardError", "random_residues(Modulus((2, 3, 5, 7)), 2 ** 36, Refusing())",
    ),
    "expand": ("GuardError", "expand(bytes(16), PrgSpec(0, 128, 2 ** 32 - 1, seven))"),
    "read_key_file on /dev/zero": ("FormatError", "read_key_file('/dev/zero')"),
    # Its table would decode to 4 GiB of uint64 beside the 512 MiB read.
    "read_key_file on a trivial key at N = 2^29": ("GuardError", "read_key_file(trivial)"),
}


def _keygen(*flags, m="1"):
    return [
        "keygen", *flags, "--m", m, "--alpha", "0", "--beta", "1", "--seed", "x",
        "--out-dir", "{dir}/{name}",
    ]


_WIDE_ROW = ["--N", "100", "--p", "65535", "--modulus", "7"]
_TRUTH_TABLES = "error: refusing truth tables: it exceeds the budget"
_MODULUS_CAP = "error: modulus value exceeds the 2**63 cap"
_PRIMES = [str(n) for n in range(2, 27450) if all(n % d for d in range(2, isqrt(n) + 1))]
_ZERO_MAGIC = "error: bad magic b'\\x00\\x00\\x00\\x00'"
# The 84-byte golden key of tests/test_serialization.py, extended by a
# sparse tail to 2 GiB.
_SPARSE_SIZE = 2 ** 31
_DEMO = ["--index", "1", "--p", "3", "--m", "1", "--modulus", "7", "--seed", "x"]
# Sparse files whose headers declare 2^29 table entries and 2^30 database
# entries over q = 7.
_TRIVIAL_N = 2 ** 29
_DB_COUNT = 2 ** 30
_HUGE = 10 ** 4000
_DIGITS = "a 4001-digit integer"
_DOMAIN_ROW = ["bench-size", "--figure", "domain", "--x-values", "100"]

# name -> (exit code, stderr prefix, argv); {dir} is the table's directory.
CLI = {
    # A boyle15 key for p = 65535 with one empty row: q^(p-1) alone is a
    # two-million-bit integer.
    "eval boyle15 over a composite": (
        3, "error: invalid boyle15 key",
        ["eval", "--key", "{dir}/composite.dpfk", "--x", "0"],
    ),
    "eval boyle15 over 2^31-1": (
        4, "error: refusing exponential blow-up",
        ["eval", "--key", "{dir}/guard.dpfk", "--x", "0"],
    ),
    # C(65534, 32767) held seeds per row has 19,726 digits, past Python's
    # 4300-digit limit on int-to-str conversion.
    "keygen ours, m = 32767": (
        4, "error: refusing a row", _keygen(*_WIDE_ROW, m="32767"),
    ),
    "keygen dcf, m = 32767": (
        4, "error: refusing a row", _keygen("--scheme", "dcf", *_WIDE_ROW, m="32767"),
    ),
    "pir-demo, m = 32767": (
        4, "error: refusing a row",
        ["pir-demo", "--db", "{dir}/db", "--index", "1", "--p", "65535", "--m", "32767",
         "--modulus", "7", "--seed", "x"],
    ),
    # Each key's row holds 65534 seeds, but the dealer's target row would
    # hold C(65535, 2) = 2,147,385,345 (once MemoryError, exit 5).
    "keygen, m = 1": (4, "error: refusing a row", _keygen(*_WIDE_ROW)),
    # 502,002 cells of 8191-byte seeds, drawn distinct at three times their
    # 4.1 GB (once MemoryError, exit 5).
    "keygen with 8191-byte seeds": (
        4, "error: refusing to deal tables",
        _keygen("--N", "28000000000", "--p", "3", "--modulus", "7", "--lambda", "65528",
                "--grid", "square"),
    ),
    # 10**8 rows holding 2 columns per key: 16.8 GB for the three keys.
    "keygen boyle15 at N = 10^16": (
        4, "error: refusing to deal tables",
        _keygen("--scheme", "boyle15", "--N", str(10 ** 16), "--p", "3", "--modulus", "2",
                "--grid", "square"),
    ),
    # One table of N = 10**5 residues is 0.8 MB, but 65535 parties hold 52 GB.
    "keygen trivial at p = 65535": (
        4, _TRUTH_TABLES,
        _keygen("--scheme", "trivial", "--N", str(10 ** 5), "--p", "65535", "--modulus", "7"),
    ),
    # Each table of N = 2**30 residues would take 8 GiB.
    "keygen trivial at N = 2^30": (
        4, _TRUTH_TABLES,
        _keygen("--scheme", "trivial", "--N", str(2 ** 30), "--p", "3", "--modulus", "7"),
    ),
    # The grid search's candidates grow with sqrt(N): past N = 2**64 an
    # unrefused size model would take seconds or run out of memory.
    "bench-size at N = 2^64": (
        2, "error: domain size",
        ["bench-size", "--figure", "domain", "--x-values", str(2 ** 64)],
    ),
    "bench-size at N = 10^40": (
        2, "error: domain size",
        ["bench-size", "--figure", "domain", "--x-values", str(10 ** 40)],
    ),
    "bench-size parties at N = 10^30": (
        2, "error: domain size",
        ["bench-size", "--figure", "parties", "--N", str(10 ** 30), "--lambda", "8",
         "--modulus", "2"],
    ),
    "keygen at N = 2^64": (
        2, "error: domain size", _keygen("--N", str(2 ** 64), "--p", "3", "--modulus", "5"),
    ),
    # Trial division and Miller-Rabin on a 4001-digit modulus once took 6.4 s
    # and printed its digits in an 8134-byte line.
    "keygen at modulus 10^4000 + 1": (
        2, _MODULUS_CAP, _keygen("--N", "100", "--p", "3", "--modulus", str(10 ** 4000 + 1)),
    ),
    "bench-size modulus at 10^4000 + 1": (
        2, _MODULUS_CAP, ["bench-size", "--figure", "modulus", "--x-values", str(10 ** 4000 + 1)],
    ),
    # The product of these primes once went into the message: past Python's
    # 4300-digit limit on int-to-str conversion (once exit 5).
    "keygen over the first 3000 primes": (
        2, _MODULUS_CAP, _keygen("--N", "100", "--p", "3", "--modulus", "*".join(_PRIMES)),
    ),
    # Evaluating 997 terms recursed past Python's limit (once exit 5); a
    # 10^4-deep unary chain exhausts the parser itself.
    "bench-size with a 997-term formula": (
        2, "error: formula has more than 256 syntax nodes",
        ["bench-size", "--figure", "domain", "--x-values", "100",
         "--bunn-prg-formula", "+".join(["1"] * 997)],
    ),
    "bench-size with a formula nested 10^4 deep": (
        2, "error: cannot parse formula",
        ["bench-size", "--figure", "domain", "--x-values", "100",
         "--bunn-prg-formula=" + "-" * 10 ** 4 + "1"],
    ),
    # Each of these read its whole input before looking at a byte: /dev/zero
    # ended in MemoryError (exit 5), and a large file was read to its end.
    "inspect on /dev/zero": (3, _ZERO_MAGIC, ["inspect", "--key", "/dev/zero"]),
    "eval on /dev/zero": (3, _ZERO_MAGIC, ["eval", "--key", "/dev/zero", "--x", "0"]),
    "eval-all on /dev/zero": (
        3, _ZERO_MAGIC, ["eval-all", "--key", "/dev/zero", "--out", "{dir}/{name}"],
    ),
    "pir-demo on /dev/zero": (
        3, "error: element block is 1 bytes, expected 0", ["pir-demo", "--db", "/dev/zero", *_DEMO],
    ),
    "eval on a golden key with a 2 GiB tail": (
        3, f"error: {_SPARSE_SIZE - 84} trailing bytes after key body",
        ["eval", "--key", "{dir}/sparse.dpfk", "--x", "0"],
    ),
    # The bunn-it size overflowed to inf and was written as a row (once exit 0).
    "bench-size with c_it = 1e308": (
        2, "error: a key size is not finite: bunn-it at 100 is inf",
        ["bench-size", "--figure", "domain", "--x-values", "100", "--c-it", "1e308",
         "--csv", "{dir}/{name}"],
    ),
    # C(65535, 32768) columns: a 65,000-bit integer.
    "bench-size at p = 65535, m = 32767": (
        2, "error: a key size exceeds the float range",
        ["bench-size", "--figure", "domain", "--x-values", "100", "--p", "65535",
         "--m", "32767"],
    ),
    "pir-demo with 65536-bit seeds": (
        2, "error: seed length 65536 must be",
        ["pir-demo", "--db", "{dir}/db", *_DEMO, "--lambda", "65536", "--grid", "square"],
    ),
    # Past Python's 4300-digit limit on parsing an int.
    "decode a 5000-digit share": (
        2, "error: --inputs must be comma-separated integers",
        ["decode", "--inputs", "1" * 5000, "--modulus", "5"],
    ),
    "decode at modulus 10^4000 + 1": (
        2, _MODULUS_CAP, ["decode", "--inputs", "1", "--modulus", str(10 ** 4000 + 1)],
    ),
    # Each of these once printed its 4001 digits in a stderr line of 4 KB.
    "keygen at alpha = 10^4000": (
        2, f"error: alpha {_DIGITS} out of range [0, 100)",
        ["keygen", "--N", "100", "--p", "3", "--m", "1", "--modulus", "7", "--alpha", str(_HUGE),
         "--beta", "1", "--seed", "x", "--out-dir", "{dir}/{name}"],
    ),
    "eval at x = 10^4000": (
        2, f"error: input {_DIGITS} out of range [0, 4)",
        ["eval", "--key", "{dir}/golden.dpfk", "--x", str(_HUGE)],
    ),
    "bench-size at p = 10^4000": (
        2, f"error: party count {_DIGITS}", [*_DOMAIN_ROW, "--p", str(_HUGE)],
    ),
    "bench-size at m = 10^4000": (
        2, f"error: corruption bound {_DIGITS}", [*_DOMAIN_ROW, "--m", str(_HUGE)],
    ),
    "bench-size at lambda = 10^4000": (
        2, f"error: seed length {_DIGITS}", [*_DOMAIN_ROW, "--lambda", str(_HUGE)],
    ),
    # The table was read whole and decoded to 4 GiB of uint64 (at N = 2^28,
    # inside the budget, the decode still ends in MemoryError under the cap).
    "eval on a trivial key at N = 2^29": (
        4, "error: refusing a key body", ["eval", "--key", "{dir}/trivial.dpfk", "--x", "0"],
    ),
    "pir-demo on a database of 2^30 entries": (
        4, "error: refusing a database", ["pir-demo", "--db", "{dir}/huge.db", *_DEMO],
    ),
}

_SEVEN = Modulus.prime(7)
_FOUR = SchemeParams.create(3, 1, _SEVEN, 4)

# name -> (message, call): every integer-range refusal in the library, each
# a `check_range` call but the last three, which render the value with
# `shown`; none prints the 4001 digits.  A key header's party is a u16, so
# its check is reached at 65535.
RANGES = {
    "party count": (
        f"party count {_DIGITS} out of range [2, 65536)", lambda: check_party_counts(_HUGE, 1),
    ),
    "corruption bound": (
        f"corruption bound {_DIGITS} out of range [1, 3)", lambda: check_party_counts(3, _HUGE),
    ),
    "domain size": (
        f"domain size {_DIGITS} out of range [1, {2 ** 64})",
        lambda: SchemeParams(3, 1, 128, _SEVEN, _HUGE, 1, 1),
    ),
    "grid rows": (
        f"grid rows {_DIGITS} out of range [1, {2 ** 32})",
        lambda: SchemeParams(3, 1, 128, _SEVEN, 1, _HUGE, 1),
    ),
    "grid cols": (
        f"grid cols {_DIGITS} out of range [1, {2 ** 32})",
        lambda: SchemeParams(3, 1, 128, _SEVEN, 1, 1, _HUGE),
    ),
    "alpha": (
        f"alpha {_DIGITS} out of range [0, 4)",
        lambda: PointDescription(_HUGE, _SEVEN.one()).validate(_FOUR),
    ),
    "DpfKey party": (
        f"party {_DIGITS} out of range [0, 3)", lambda: DpfKey(_HUGE, _FOUR, None, None, None),
    ),
    "TrivialKey party": (
        f"party {_DIGITS} out of range [0, 3)", lambda: TrivialKey(_HUGE, _FOUR, None),
    ),
    "eval_point input": (
        f"input {_DIGITS} out of range [0, 4)",
        lambda: eval_point(TrivialKey(0, _FOUR, FieldVector(_SEVEN, [[0] * 4]).data), _HUGE),
    ),
    "check_seed_coverage member": (
        f"coalition member {_DIGITS} out of range [0, 3)",
        lambda: check_seed_coverage(3, 1, (_HUGE,)),
    ),
    "simulate_coalition_view member": (
        f"coalition member {_DIGITS} out of range [0, 3)",
        lambda: simulate_coalition_view(_FOUR, (_HUGE,), None),
    ),
    "PrgSpec output length": (
        f"output length {_DIGITS} out of range [1, {2 ** 32})",
        lambda: PrgSpec(0, 128, _HUGE, _SEVEN),
    ),
    "expand first element": (
        f"first element {_DIGITS} out of range [0, 4)",
        lambda: expand(bytes(16), PrgSpec(0, 128, 4, _SEVEN), _HUGE),
    ),
    "parse_header party": (
        "party 65535 out of range [0, 3)", lambda: parse_header(_pack_header(1, 65535, _FOUR)),
    ),
    "minimize_grid domain size": (
        f"domain size {_DIGITS} out of range [1, {2 ** 64})", lambda: minimize_grid(_HUGE, 1, 1),
    ),
    "seed_size": (
        f"seed length {_DIGITS} must be one of 8, 16, ..., 65528", lambda: seed_size(_HUGE),
    ),
    "FieldElement residue": (
        f"residue {_DIGITS} out of range for factor 7", lambda: FieldElement(_SEVEN, (_HUGE,)),
    ),
    "FieldVector index": (
        f"index {_DIGITS} out of range", lambda: FieldVector(_SEVEN, [[0]])[_HUGE],
    ),
}

# (command, option) -> why no row needs to name this value-taking option.
# Empty: every option is named by some row above.
EXEMPT = {}


@pytest.fixture(scope="module")
def hostile(capped_python, tmp_path_factory):
    """The table's directory, and each row's outcome: the call's exit code
    or exception name (None when it returned), its stdout and stderr, and
    its wall time."""
    tmp = tmp_path_factory.mktemp("hostile")
    for name, factors in (("composite", (2147483629, 2147483647)), ("guard", (2147483647,))):
        modulus = Modulus(factors)
        params = SchemeParams(65535, 1, 128, modulus, 1, 1, 1)
        blob = _pack_header(2, 0, params) + bytes(4) + bytes(element_width(modulus))
        (tmp / f"{name}.dpfk").write_bytes(blob)
    write_database(tmp / "db", Database(_SEVEN, FieldVector(_SEVEN, [[1] * 100])))
    golden = SchemeParams.create(3, 1, Modulus.prime(5), 4)
    point = PointDescription(2, golden.modulus.element(3))
    key = gen(point, golden, DeterministicRandomSource("golden"))[0]
    for name in ("golden", "sparse"):
        write_key_file(tmp / f"{name}.dpfk", key)
    os.truncate(tmp / "sparse.dpfk", _SPARSE_SIZE)
    trivial = SchemeParams.create(3, 1, _SEVEN, _TRIVIAL_N)
    (tmp / "trivial.dpfk").write_bytes(_pack_header(3, 0, trivial))
    os.truncate(tmp / "trivial.dpfk", header_size(_SEVEN) + _TRIVIAL_N)
    (tmp / "huge.db").write_bytes(_DB_COUNT.to_bytes(8, "little"))
    os.truncate(tmp / "huge.db", 8 + _DB_COUNT)
    argvs = {
        name: [arg.format(dir=tmp, name=name) for arg in argv]
        for name, (_, _, argv) in CLI.items()
    }
    child = capped_python(f"""
        import contextlib, io, json, time
        from dpfkit import cli
        from dpfkit.algebra import FieldVector, Modulus, random_residues
        from dpfkit.dpf import PointDescription, SchemeParams, gen, simulate_coalition_view
        from dpfkit.keyfile import read_key_file
        from dpfkit.prg import PrgSpec, expand, sample_seeds

        class Refusing:
            def randbytes(self, n):
                raise AssertionError(f"read {{n}} random bytes")

        cli._make_rng = lambda args: Refusing()
        seven = Modulus.prime(7)
        wide = SchemeParams.create(65535, 1, seven, 100)
        tall = SchemeParams(3, 1, 128, seven, 6170930, 6170930, 1)
        deep = SchemeParams(26, 12, 128, seven, 50, 1, 50)
        long_seeds = SchemeParams.create(3, 1, seven, 28 * 10 ** 9, 65528, "square")
        point = PointDescription(0, seven.one())
        trivial = {str(tmp / "trivial.dpfk")!r}

        def run(name, call):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = call()
                except Exception as exc:
                    result = type(exc).__name__
            seconds = time.perf_counter() - start
            print(json.dumps([name, result, out.getvalue(), err.getvalue(), seconds]))

        for name, (_, call) in {LIBRARY!r}.items():
            run(name, lambda: exec(call))
        for name, argv in {argvs!r}.items():
            run(name, lambda: cli.main(argv))
    """)
    assert child.returncode == 0, child.stderr
    rows = [json.loads(line) for line in child.stdout.splitlines()]
    return tmp, {name: outcome for name, *outcome in rows}


@pytest.mark.parametrize("name", LIBRARY)
def test_library_call_is_refused(hostile, name):
    _, outcomes = hostile
    result, _, _, seconds = outcomes[name]
    assert result == LIBRARY[name][0] and seconds < 1, outcomes[name]


@pytest.mark.parametrize("name", CLI)
def test_command_is_refused(hostile, name):
    tmp, outcomes = hostile
    code, prefix, _ = CLI[name]
    result, out, err, seconds = outcomes[name]
    assert (result, out) == (code, ""), err
    assert err.startswith(prefix) and err.count("\n") == 1 and len(err) < 300, err
    assert seconds < 1
    assert not (tmp / name).exists()


@pytest.mark.parametrize("name", RANGES)
def test_range_refusal_is_short(name):
    message, call = RANGES[name]
    with pytest.raises(DpfError) as refused:
        call()
    assert str(refused.value) == message and len(message) < 200


def _value_options():
    """(command, option) for every option of every command that takes a value."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.option_strings and action.nargs != 0:
                yield command, action.option_strings[0]


def test_every_value_option_has_a_row():
    named = {
        (argv[0], arg.split("=")[0]) for _, _, argv in CLI.values() for arg in argv[1:]
    }
    options = set(_value_options())
    assert options - named <= set(EXEMPT), sorted(options - named - set(EXEMPT))
    assert set(EXEMPT) <= options - named, "stale exemptions"
