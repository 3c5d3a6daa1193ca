"""Analytic key-size models and benchmark figure datasets.

All analytic sizes are information bits; measured sizes come from the
serializer and include header and byte-padding overhead, which
`serialized_overhead_bits` accounts for exactly.  Write b(M) for
sum_i ceil(lg q_i) over the prime factors of the modulus, B for
C(p-1, m) and C for C(p, m+1).

ours      min over R*V >= N of  R*B*(lambda + b) + V*b
          (per row a key holds B seed/share pairs; the correction
          vector has V elements; the grid optimizer in `dpf.choose_grid`
          minimizes exactly this expression)
dcf       ours + R*b  (one extra output share per row, on ours' grid)
trivial   N*b          (an additive share of the whole table)
boyle15   per prime factor q, min over R*V >= N of
              R * q^(p-1) * (lambda*(1-1/q) + ceil(lg q) + 32) + V*ceil(lg q)
          an expected-size model: every column stores its share and a u32
          column index, and a seed is present for the (1-1/q) fraction of
          columns with a non-zero share.  The CRT variant sums one
          instance per factor, each with its own optimized grid.
bunn-it   c_it * ceil(sqrt(N)) * C * b, with c_it a documented fudge
          constant (default 1) because only the asymptotic shape is
          known; a PRG-based variant is accepted solely as a
          user-supplied formula string.

Model discrepancy, documented rather than tuned
-----------------------------------------------
With lambda=128, N=10**6, p=7, the boyle15+CRT model does NOT dip below
the trivial scheme at the 4th primorial (210); the published-style
crossover between 210 and 2310 only appears at larger domains (about
N >= 7*10**6 for these constants).  The q=7 factor alone already
certifies this: its cost is at least 2*sqrt(N * K * 3) with
K = 7^5 * 1013 row bits, about 1.43*10**7 > 9*10**6 = trivial(210).
`crossover_report` recomputes the exact numbers; EXPECTED_CROSSOVER
freezes them so tests can prove the model was not quietly re-tuned.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass
from math import comb, isqrt

from . import keyfile
from .algebra import Modulus, minimize_grid, primorial
from .baselines import require_prime
from .dpf import GRID_AUTO, SchemeParams, check_party_counts, choose_grid
from .errors import ParameterError
from .prg import seed_size

MERSENNE31 = 2147483647

DOMAIN_SWEEP_SIZES = tuple(10 ** k for k in range(2, 9))
PARTY_SWEEP = (3, 5, 7, 9, 11)
MODULUS_SWEEP_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 127, 257, 8191, 65537, MERSENNE31,
)
PRIMORIAL_SWEEP_COUNT = 7  # 2, 6, 30, 210, 2310, 30030, 510510

# Figure name -> dataset name; `bench-size --figure` offers the names in this order.
FIGURES = {
    "modulus": "modulus-sweep",
    "primorial": "primorial-sweep",
    "domain": "domain-sweep",
    "parties": "party-sweep",
}


def size_ours(
    domain_size: int,
    parties: int,
    corrupted: int,
    lambda_bits: int,
    modulus: Modulus,
    grid: str = GRID_AUTO,
) -> int:
    check_party_counts(parties, corrupted)
    seed_size(lambda_bits)
    bits = modulus.residue_bits
    rows, cols = choose_grid(domain_size, parties, corrupted, lambda_bits, modulus, grid)
    return rows * comb(parties - 1, corrupted) * (lambda_bits + bits) + cols * bits


def size_dcf(
    domain_size: int,
    parties: int,
    corrupted: int,
    lambda_bits: int,
    modulus: Modulus,
    grid: str = GRID_AUTO,
) -> int:
    ours = size_ours(domain_size, parties, corrupted, lambda_bits, modulus, grid)
    rows, _ = choose_grid(domain_size, parties, corrupted, lambda_bits, modulus, grid)
    return ours + rows * modulus.residue_bits


def size_trivial(domain_size: int, modulus: Modulus) -> int:
    return domain_size * modulus.residue_bits


def _boyle_row_cost(q: int, parties: int, lambda_bits: int) -> int:
    """q^(p-1) * (lambda*(q-1)/q + ceil(lg q) + 32), exact for p >= 2."""
    bits = (q - 1).bit_length()
    return q ** (parties - 2) * (q - 1) * lambda_bits + q ** (parties - 1) * (bits + 32)


def _grid_boyle(domain_size, parties, lambda_bits, modulus) -> tuple[int, int, int]:
    """(rows, cols, expected bits) of the model-optimal prime-modulus instance."""
    require_prime(modulus)
    seed_size(lambda_bits)
    q = modulus.value
    return minimize_grid(
        domain_size, _boyle_row_cost(q, parties, lambda_bits), (q - 1).bit_length()
    )


def choose_grid_boyle(
    domain_size: int, parties: int, lambda_bits: int, modulus: Modulus
) -> tuple[int, int]:
    """Model-optimal grid for a prime-modulus full-enumeration instance."""
    return _grid_boyle(domain_size, parties, lambda_bits, modulus)[:2]


def size_boyle(
    domain_size: int, parties: int, lambda_bits: int, modulus: Modulus
) -> float:
    """Expected key bits of the full-enumeration scheme over a prime modulus."""
    return float(_grid_boyle(domain_size, parties, lambda_bits, modulus)[2])


def size_boyle_crt(
    domain_size: int, parties: int, lambda_bits: int, modulus: Modulus
) -> float:
    """One full-enumeration instance per prime factor, sizes summed."""
    return sum(
        size_boyle(domain_size, parties, lambda_bits, Modulus.prime(q))
        for q in modulus.factors
    )


def size_bunn_it(
    domain_size: int,
    parties: int,
    corrupted: int,
    modulus: Modulus,
    c_it: float = 1.0,
) -> float:
    if not (math.isfinite(c_it) and c_it > 0):
        raise ParameterError(f"c_it must be finite and positive, got {c_it}")
    side = isqrt(domain_size)
    if side * side < domain_size:
        side += 1
    return c_it * side * comb(parties, corrupted + 1) * modulus.residue_bits


def _binom(n, k):
    """C(n, k), refused before computing when it would exceed 2**1024."""
    lg = math.lgamma
    if 0 <= k <= n and lg(n + 1) - lg(k + 1) - lg(n - k + 1) > 1024 * math.log(2):
        raise ParameterError("a binomial in the formula exceeds the float range")
    return comb(n, k)


FORMULA_NODES = 256  # the most syntax nodes a formula may have; figures need a few dozen
_FORMULA_FUNCS = {
    "sqrt": math.sqrt,
    "log2": math.log2,
    "log": math.log,
    "ceil": math.ceil,
    "floor": math.floor,
    "binom": _binom,
    "min": min,
    "max": max,
}


def _power(a, b):
    """a ** b, refused before computing when |a ** b| would exceed 2**1024.

    Past that no float holds the result, and an integer power that large
    can take unbounded time and memory.
    """
    if abs(a) > 1 and b > 0 and b * math.log2(abs(a)) > 1024:
        raise ParameterError("a power in the formula exceeds the float range")
    return a ** b


_FORMULA_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: _power,
}


def _eval_formula_node(node: ast.AST, variables: dict[str, float]):
    if isinstance(node, ast.Expression):
        return _eval_formula_node(node.body, variables)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in variables:
            return variables[node.id]
        raise ParameterError(f"unknown variable {node.id[:32]!r} in formula")
    if isinstance(node, ast.BinOp) and type(node.op) in _FORMULA_OPS:
        return _FORMULA_OPS[type(node.op)](
            _eval_formula_node(node.left, variables),
            _eval_formula_node(node.right, variables),
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _eval_formula_node(node.operand, variables)
        return value if isinstance(node.op, ast.UAdd) else -value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FORMULA_FUNCS
        and not node.keywords
    ):
        args = [_eval_formula_node(a, variables) for a in node.args]
        return _FORMULA_FUNCS[node.func.id](*args)
    raise ParameterError(f"unsupported construct in formula: {type(node).__name__}")


def eval_formula(text: str, **variables: float) -> float:
    """Evaluate a plain arithmetic expression over named variables.

    Accepts numbers, + - * / // % **, unary signs, and the functions
    sqrt/log2/log/ceil/floor/binom/min/max.  Anything else is rejected,
    and so is an arithmetic error such as a division by zero.  A tree of
    more than FORMULA_NODES nodes is refused before anything is evaluated,
    which bounds the work and the recursion.  No message repeats the text.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:  # deep nesting
        raise ParameterError(f"cannot parse formula: {str(exc) or type(exc).__name__}") from exc
    if sum(1 for _ in ast.walk(tree)) > FORMULA_NODES:
        raise ParameterError(f"formula has more than {FORMULA_NODES} syntax nodes")
    try:
        return float(_eval_formula_node(tree, variables))
    except ParameterError:
        raise
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise ParameterError(f"cannot evaluate formula: {exc}") from exc


def size_bunn_prg(
    formula: str,
    domain_size: int,
    parties: int,
    corrupted: int,
    modulus: Modulus,
    lambda_bits: int,
) -> float:
    """No built-in model exists for the PRG variant; callers supply one.

    The formula sees N, p, m, q (the modulus value), lam and
    C = binom(p, m+1).
    """
    seed_size(lambda_bits)
    return eval_formula(
        formula,
        N=domain_size,
        p=parties,
        m=corrupted,
        q=modulus.value,
        lam=lambda_bits,
        C=comb(parties, corrupted + 1),
    )


def serialized_overhead_bits(params: SchemeParams, scheme: str = "ours") -> int:
    """Exact serialized-minus-analytic gap for the exactly-sized schemes.

    The gap is the fixed header plus the byte padding of each encoded
    element (8*ceil(bits_i/8) - bits_i per factor); seeds carry no
    padding because lambda is a multiple of 8.
    """
    header = 8 * keyfile.header_size(params.modulus)
    pad = 8 * keyfile.element_width(params.modulus) - params.modulus.residue_bits
    if scheme == "ours":
        elements = params.rows * params.tuples_per_row + params.cols
    elif scheme == "dcf":
        elements = params.rows * params.tuples_per_row + params.cols + params.rows
    elif scheme == "trivial":
        elements = params.domain_size
    else:
        raise ParameterError(f"no exact overhead accounting for scheme {scheme!r}")
    return header + elements * pad


@dataclass(frozen=True)
class CrossoverReport:
    domain_size: int
    parties: int
    lambda_bits: int
    boyle_crt_210: float
    trivial_210: int
    boyle_crt_2310: float
    trivial_2310: int
    lower_bound_q7: float

    @property
    def reproduced_at_210(self) -> bool:
        return self.boyle_crt_210 <= self.trivial_210

    @property
    def exceeds_at_2310(self) -> bool:
        return self.boyle_crt_2310 > self.trivial_2310


def crossover_report(
    domain_size: int = 10 ** 6, parties: int = 7, lambda_bits: int = 128
) -> CrossoverReport:
    """Where the full-enumeration+CRT model crosses the trivial scheme.

    lower_bound_q7 is 2*sqrt(N*K*b) for the q=7 factor, a grid-independent
    floor (AM-GM on R*K + (N/R)*b) on that factor's cost alone.
    """
    m210 = primorial(4)
    m2310 = primorial(5)
    k7 = _boyle_row_cost(7, parties, lambda_bits)
    return CrossoverReport(
        domain_size=domain_size,
        parties=parties,
        lambda_bits=lambda_bits,
        boyle_crt_210=size_boyle_crt(domain_size, parties, lambda_bits, m210),
        trivial_210=size_trivial(domain_size, m210),
        boyle_crt_2310=size_boyle_crt(domain_size, parties, lambda_bits, m2310),
        trivial_2310=size_trivial(domain_size, m2310),
        lower_bound_q7=2.0 * math.sqrt(domain_size * float(k7) * 3),
    )


# Frozen values of crossover_report(10**6, 7, 128), kept in sync by the
# acceptance suite so any silent re-tuning of the model fails loudly.
EXPECTED_CROSSOVER = {
    "boyle_crt_210": 26164964.0,
    "trivial_210": 9000000,
    "boyle_crt_2310": 300086440.0,
    "trivial_2310": 13000000,
    "lower_bound_q7": 14293561.207760647,
}


@dataclass(frozen=True)
class FigureDataset:
    figure: str
    rows: tuple[tuple[str, int, float], ...]

    def to_csv_text(self) -> str:
        lines = ["scheme,x,bits"]
        for scheme, x, bits in self.rows:
            text = str(int(bits)) if bits.is_integer() else repr(bits)
            lines.append(f"{scheme},{x},{text}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_text())


def _default_corrupted(parties: int) -> int:
    return (parties - 1) // 2


def _in_float_range(fn):
    """Raise a size past the float range as ParameterError, not OverflowError."""

    @functools.wraps(fn)
    def sized(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise ParameterError(f"a key size exceeds the float range: {exc}") from exc

    return sized


@_in_float_range
def emit_figure(
    figure: str,
    *,
    domain_size: int = 10 ** 6,
    parties: int = 7,
    corrupted: int | None = None,
    lambda_bits: int = 128,
    modulus: Modulus | None = None,
    c_it: float = 1.0,
    bunn_prg_formula: str | None = None,
    x_values=None,
) -> FigureDataset:
    """Build one of the four benchmark datasets.

    modulus-sweep and primorial-sweep vary the modulus at fixed domain and
    party count (the former unions a prime list with the primorials); the
    full-enumeration scheme appears there, as a per-factor CRT sum over
    composites.  domain-sweep and party-sweep track the compact schemes
    only, over a fixed modulus (default q = 2**31 - 1).
    """
    if figure not in FIGURES:
        raise ParameterError(
            f"unknown figure {figure!r}; pick one of {sorted(FIGURES)}"
        )
    sweeps_modulus = figure in ("modulus", "primorial")
    primorials = [primorial(i).value for i in range(1, PRIMORIAL_SWEEP_COUNT + 1)]
    if x_values is not None:
        xs = sorted(set(x_values))
    elif figure == "modulus":
        xs = sorted(set(MODULUS_SWEEP_PRIMES) | set(primorials))
    elif figure == "primorial":
        xs = primorials
    else:
        xs = DOMAIN_SWEEP_SIZES if figure == "domain" else PARTY_SWEEP
    fixed = modulus if modulus is not None else Modulus.prime(MERSENNE31)

    rows: list[tuple[str, int, float]] = []
    for x in xs:
        n = x if figure == "domain" else domain_size
        p = x if figure == "parties" else parties
        mod = Modulus.from_int(x) if sweeps_modulus else fixed
        m = corrupted if corrupted is not None else _default_corrupted(p)
        rows.append(("ours", x, size_ours(n, p, m, lambda_bits, mod)))
        rows.append(("trivial", x, size_trivial(n, mod)))
        rows.append(("bunn-it", x, size_bunn_it(n, p, m, mod, c_it)))
        if sweeps_modulus:
            rows.append(("boyle15-crt", x, size_boyle_crt(n, p, lambda_bits, mod)))
            if len(mod.factors) == 1:
                rows.append(("boyle15", x, size_boyle(n, p, lambda_bits, mod)))
        if bunn_prg_formula:
            rows.append(
                ("bunn-prg", x, size_bunn_prg(bunn_prg_formula, n, p, m, mod, lambda_bits))
            )

    # (scheme, x) pairs are unique, so sorting never compares the sizes
    rows = sorted((scheme, x, float(bits)) for scheme, x, bits in rows)
    for scheme, x, bits in rows:
        if not math.isfinite(bits):
            raise ParameterError(f"a key size is not finite: {scheme} at {x} is {bits}")
    return FigureDataset(figure=FIGURES[figure], rows=tuple(rows))


@_in_float_range
def compression_info(
    domain_size: int = 10 ** 6,
    parties: int = 7,
    corrupted: int | None = None,
    lambda_bits: int = 128,
    modulus: Modulus | None = None,
) -> float:
    """bunn-it bits divided by ours, the achieved ratio with c_it = 1."""
    mod = modulus if modulus is not None else Modulus.prime(MERSENNE31)
    m = corrupted if corrupted is not None else _default_corrupted(parties)
    return size_bunn_it(domain_size, parties, m, mod, 1.0) / size_ours(
        domain_size, parties, m, lambda_bits, mod
    )
