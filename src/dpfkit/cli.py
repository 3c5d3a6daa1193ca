"""Command-line front end.

Subcommands: keygen, eval, eval-all, decode, bench-size, pir-demo,
inspect.  stdout carries exactly the machine-readable result (a single
value, CSV rows, or key=value lines); everything informational goes to
stderr.  Exit codes: 0 success, 2 bad parameters or usage, 3 malformed
files, 4 guard refusals, 5 internal failures.

Runs are deterministic under --seed, which derives all randomness from
the given string; the production PRG stays in place unless
--insecure-test-prg additionally swaps in the non-cryptographic test
generator (only valid together with --seed).
"""

from __future__ import annotations

import argparse
import random
import sys

from . import baselines, dcf, dpf, keyfile, pir, sizing
from .algebra import Modulus, parse_modulus
from .dpf import GRID_AUTO, GRID_SQUARE, PointDescription, SchemeParams
from .errors import DpfError, FormatError, GuardError, ParameterError
from .prg import PRG_SHAKE128, PRG_TEST_LCG, DeterministicRandomSource

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_FORMAT = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5

_SCHEME_GENERATORS = {
    "ours": dpf.gen,
    "boyle15": baselines.boyle_gen,
    "trivial": baselines.trivial_gen,
    "dcf": dcf.dcf_gen,
}

# Key type -> (module, point evaluator, full-domain evaluator).  The
# functions are looked up by name on each call, so a rebound module
# attribute, such as a tracing wrapper, is the one that runs.
_EVALUATORS = {
    dpf.DpfKey: (dpf, "eval_point", "eval_all"),
    dcf.DcfKey: (dcf, "dcf_eval", "dcf_eval_all"),
    baselines.BoyleKey: (dpf, "eval_point", "eval_all"),
    baselines.TrivialKey: (baselines, "trivial_eval", "trivial_eval_all"),
}


def _make_rng(args) -> random.Random:
    if getattr(args, "insecure_test_prg", False) and args.seed is None:
        raise ParameterError("--insecure-test-prg requires --seed")
    if args.seed is not None:
        return DeterministicRandomSource(args.seed)
    return random.SystemRandom()


def _prg_algorithm(args) -> int:
    return PRG_TEST_LCG if getattr(args, "insecure_test_prg", False) else PRG_SHAKE128


def _build_params(args, modulus: Modulus) -> SchemeParams:
    scheme = getattr(args, "scheme", "ours")
    algorithm = _prg_algorithm(args)
    if scheme == "boyle15" and args.grid == GRID_AUTO:
        baselines.require_prime(modulus)
        baselines.check_guard(modulus.value, args.p)
        grid: str | tuple[int, int] = sizing.choose_grid_boyle(
            args.N, args.p, args.lambda_bits, modulus
        )
    else:
        grid = args.grid
    return SchemeParams.create(
        parties=args.p,
        corrupted=args.m,
        modulus=modulus,
        domain_size=args.N,
        lambda_bits=args.lambda_bits,
        grid=grid,
        prg_algorithm=algorithm,
    )


def _cmd_keygen(args) -> int:
    modulus = parse_modulus(args.modulus)
    rng = _make_rng(args)
    params = _build_params(args, modulus)
    point = PointDescription(alpha=args.alpha, beta=modulus.element(args.beta))
    keys = _SCHEME_GENERATORS[args.scheme](point, params, rng)
    from pathlib import Path

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for key in keys:
        path = out_dir / f"key_{key.party}.dpfk"
        size = keyfile.write_key_file(path, key)
        print(f"{key.party},{path},{size}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    key = keyfile.read_key_file(args.key)
    module, point, _ = _EVALUATORS[type(key)]
    print(getattr(module, point)(key, args.x).lift())
    return EXIT_OK


def _cmd_eval_all(args) -> int:
    key = keyfile.read_key_file(args.key)
    module, _, full_domain = _EVALUATORS[type(key)]
    vector = getattr(module, full_domain)(key)
    if args.out is None:
        sys.stdout.write("\n".join(map(str, vector.lift_all())) + "\n")
        return EXIT_OK
    pir.write_database(args.out, pir.Database(key.params.modulus, vector))
    print(args.out)
    return EXIT_OK


def _cmd_decode(args) -> int:
    modulus = parse_modulus(args.modulus)
    try:
        values = [int(part) for part in args.inputs.split(",") if part != ""]
    except ValueError as exc:
        raise ParameterError(f"--inputs must be comma-separated integers: {exc}")
    if not values:
        raise ParameterError("--inputs is empty")
    shares = [modulus.element(v) for v in values]
    print(dpf.decode(shares).lift())
    return EXIT_OK


def _cmd_bench_size(args) -> int:
    modulus = parse_modulus(args.modulus) if args.modulus else None
    x_values = None
    if args.x_values:
        try:
            x_values = [int(part) for part in args.x_values.split(",") if part]
        except ValueError as exc:
            raise ParameterError(f"--x-values must be comma-separated integers: {exc}")
    dataset = sizing.emit_figure(
        args.figure,
        domain_size=args.N,
        parties=args.p,
        corrupted=args.m,
        lambda_bits=args.lambda_bits,
        modulus=modulus,
        c_it=args.c_it,
        bunn_prg_formula=args.bunn_prg_formula,
        x_values=x_values,
    )
    ratio = sizing.compression_info(
        domain_size=args.N,
        parties=args.p,
        corrupted=args.m,
        lambda_bits=args.lambda_bits,
        modulus=modulus,
    )
    print(
        f"info: ours is {ratio:.2f}x smaller than the bunn-it model "
        f"(c_it=1, N={args.N}, p={args.p})",
        file=sys.stderr,
    )
    if args.csv:
        dataset.write_csv(args.csv)
        print(args.csv)
    else:
        sys.stdout.write(dataset.to_csv_text())
    return EXIT_OK


def _cmd_pir_demo(args) -> int:
    modulus = parse_modulus(args.modulus)
    rng = _make_rng(args)
    db = pir.read_database(args.db, modulus)
    value, transcript = pir.pir_demo(
        db,
        args.index,
        parties=args.p,
        corrupted=args.m,
        lambda_bits=args.lambda_bits,
        rng=rng,
        grid=args.grid,
    )
    print(f"value={value.lift()}")
    print(f"upload_bits={transcript.upload_bits}")
    print(f"download_bits={transcript.download_bits}")
    print(f"trivial_bits={transcript.trivial_bits}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    with open(args.key, "rb") as fh:
        data = fh.read()
    scheme, party, params, offset = keyfile.parse_header(data)
    print(f"scheme={keyfile.SCHEMES[scheme].name}")
    print(f"party={party}")
    print(f"parties={params.parties}")
    print(f"corrupted={params.corrupted}")
    print(f"lambda={params.lambda_bits}")
    print(f"domain={params.domain_size}")
    print(f"rows={params.rows}")
    print(f"cols={params.cols}")
    print(f"modulus={params.modulus}")
    print(f"prg={params.prg_algorithm}")
    print(f"header_bytes={offset}")
    print(f"body_bytes={len(data) - offset}")
    return EXIT_OK


def _add_common_keygen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--N", type=int, required=True, help="domain size")
    sub.add_argument("--p", type=int, required=True, help="number of parties")
    sub.add_argument("--m", type=int, required=True, help="corruption bound")
    sub.add_argument("--modulus", required=True, help='e.g. "257" or "2*3*5*7"')
    sub.add_argument(
        "--lambda",
        dest="lambda_bits",
        type=int,
        default=128,
        help="seed length in bits (default 128)",
    )
    sub.add_argument(
        "--grid",
        choices=(GRID_AUTO, GRID_SQUARE),
        default=GRID_AUTO,
        help="grid strategy (default auto)",
    )
    sub.add_argument("--seed", help="derive all randomness from this string")
    sub.add_argument(
        "--insecure-test-prg",
        action="store_true",
        help="swap in the deterministic test PRG (requires --seed)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfkit",
        description="point-function secret sharing: keygen, evaluation, and size benchmarks",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    keygen = commands.add_parser("keygen", help="generate one key file per party")
    keygen.add_argument(
        "--scheme", choices=sorted(_SCHEME_GENERATORS), default="ours"
    )
    keygen.add_argument("--alpha", type=int, required=True, help="special input index")
    keygen.add_argument("--beta", type=int, required=True, help="output value at alpha")
    keygen.add_argument("--out-dir", required=True, help="directory for key_<i>.dpfk")
    _add_common_keygen_flags(keygen)
    keygen.set_defaults(run=_cmd_keygen)

    ev = commands.add_parser("eval", help="evaluate one key at one input")
    ev.add_argument("--key", required=True)
    ev.add_argument("--x", type=int, required=True)
    ev.set_defaults(run=_cmd_eval)

    evall = commands.add_parser(
        "eval-all", help="evaluate one key at every input (file or stdout)"
    )
    evall.add_argument("--key", required=True)
    evall.add_argument(
        "--out", help="write binary vector (u64 count then fixed-width elements)"
    )
    evall.set_defaults(run=_cmd_eval_all)

    dec = commands.add_parser("decode", help="sum shares and print the lifted value")
    dec.add_argument("--inputs", required=True, help="comma-separated share values")
    dec.add_argument("--modulus", required=True)
    dec.set_defaults(run=_cmd_decode)

    bench = commands.add_parser("bench-size", help="emit a key-size dataset as CSV")
    bench.add_argument(
        "--figure", choices=("modulus", "primorial", "domain", "parties"), required=True
    )
    bench.add_argument("--csv", help="output path (stdout when omitted)")
    bench.add_argument("--N", type=int, default=10 ** 6)
    bench.add_argument("--p", type=int, default=7)
    bench.add_argument("--m", type=int, default=None)
    bench.add_argument("--lambda", dest="lambda_bits", type=int, default=128)
    bench.add_argument("--modulus", help="fixed modulus for domain/party sweeps")
    bench.add_argument("--c-it", type=float, default=1.0)
    bench.add_argument("--bunn-prg-formula", help="size formula over N,p,m,q,lam,C")
    bench.add_argument("--x-values", help="comma-separated sweep override")
    bench.set_defaults(run=_cmd_bench_size)

    demo = commands.add_parser("pir-demo", help="run one private lookup end to end")
    demo.add_argument("--db", required=True, help="database file")
    demo.add_argument("--modulus", required=True)
    demo.add_argument("--index", type=int, required=True)
    demo.add_argument("--p", type=int, required=True)
    demo.add_argument("--m", type=int, required=True)
    demo.add_argument("--lambda", dest="lambda_bits", type=int, default=128)
    demo.add_argument("--grid", choices=(GRID_AUTO, GRID_SQUARE), default=GRID_AUTO)
    demo.add_argument("--seed")
    demo.add_argument("--insecure-test-prg", action="store_true")
    demo.set_defaults(run=_cmd_pir_demo)

    ins = commands.add_parser("inspect", help="print a key file header")
    ins.add_argument("--key", required=True)
    ins.set_defaults(run=_cmd_inspect)

    return parser


# Exception class -> exit code; the first class that matches wins.
_EXIT_CODES = (
    (ParameterError, EXIT_PARAMETER),
    (FormatError, EXIT_FORMAT),
    (GuardError, EXIT_GUARD),
    (DpfError, EXIT_INTERNAL),
    (OSError, EXIT_FORMAT),
    (MemoryError, EXIT_INTERNAL),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
