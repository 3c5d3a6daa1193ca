"""Honest-majority distributed point function.

The domain [0, N) is laid out as a rows x cols grid.  For every grid row
the dealer builds a small matrix of additive shares: one column per
(m+1)-subset of the p parties, each column holding a fresh additive
sharing of 1 on the target row and of 0 on every other row, supported
only on that column's subset.  Every column also carries one short seed,
handed to exactly the parties in its subset.  A single public correction
vector W fixes the target row so that the sum over all parties of

    share[party, 0] * W + sum_j share[party, j] * G(seed[row, j])

equals beta at the target column and zero elsewhere (G is the seed
expansion from `prg`).  Because the coalition bound m is below p/2,
every row has at least one column whose subset contains no corrupted
party, and that column's unexpanded seed masks W.

A key stores, per row, only the (seed, share) pairs for the columns that
contain its party: C(p-1, m) pairs out of the C(p, m+1) columns.
Columns are ranked in lexicographic order, so column 0 is {0, ..., m}:
parties 0..m apply the correction, and evaluation needs no other fact
about the layout.

CNF view.  The seeds form a replicated sharing in the sense of CNF
sharing (Bunn, Kushilevitz and Ostrovsky, "CNF-FSS and its Applications",
PKC 2022).  Apart from the W term, a row's reconstructed vector is a sum
of C(p, m+1) pieces, one per column: G(seed) times the sum of that
column's shares.  The seed of column S is handed whole to every party in
the (m+1)-subset S.  At p = 2m+1 those subsets are exactly the
complements of the m-subsets, which is CNF sharing for threshold m.  A
coalition learns the seed of column S exactly when it meets S, so W
stays masked as long as some (m+1)-subset avoids the coalition, that is,
as long as a coalition of k parties has k <= p-m-1.  `check_seed_coverage`
is that closed form, and `honest_majority` (m < p/2) is its k = m case.

Dealing is on arrays.  `_gen_core` deals `gen` and `dcf_gen` keys with
`prg.sample_seeds`, `_deal` and `_correction`, and hands each party its
columns through `SchemeParams.layout`: two (p, C(p-1, m)) integer arrays
of each party's column ranks and its place in each column's subset.
Building the layout first refuses a target row, or a deal charged past
`EVAL_BUDGET` by `algebra`'s table, and more cells than distinct
non-zero seeds, so the dealer reads it before its first draw, and the
simulator and a direct read are refused where `gen` is.  The baselines reuse `_correction` and
`_deal`'s rule, and every dealer and `simulate_coalition_view` draw their
seeds distinct and non-zero with `prg.sample_seeds`.

One evaluator serves every scheme: each key's `row(r)` gives the row's
seeds, shares, correction (for column 0's holders) and an offset (a DCF
row output share, or a slice of a trivial key's table), and
`_combine_row` under `eval_point`, `eval_rows` and `eval_all` sums them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from math import comb, isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import prg
from .algebra import EXPANSION_PEAK, LAYOUT_PEAK, RESIDUE_PEAK, SEED_PEAK, WORD_BYTES, check_budget
from .algebra import FieldElement, FieldVector, Modulus, minimize_grid, random_residues
from .errors import HonestMajorityError, ParameterError, check_range, shown
from .prg import PrgSpec, expand, sample_seeds

GRID_AUTO = "auto"
GRID_SQUARE = "square"
Row = tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]  # see `_combine_row`


def check_party_counts(parties: int, corrupted: int) -> None:
    """Every scheme needs 2 <= parties < 2**16 and 1 <= corrupted < parties."""
    check_range("party count", parties, 2, 2 ** 16)
    check_range("corruption bound", corrupted, 1, parties)


@dataclass(frozen=True)
class SchemeParams:
    """Shared parameters; identical across all keys of one generation."""

    parties: int
    corrupted: int
    lambda_bits: int
    modulus: Modulus
    domain_size: int
    rows: int
    cols: int
    prg_algorithm: int = prg.PRG_SHAKE128

    def __post_init__(self) -> None:
        check_party_counts(self.parties, self.corrupted)
        check_range("domain size", self.domain_size, 1, 2 ** 64)
        check_range("grid rows", self.rows, 1, 2 ** 32)
        check_range("grid cols", self.cols, 1, 2 ** 32)
        if self.rows * self.cols < self.domain_size:
            raise ParameterError(
                f"grid {self.rows}x{self.cols} does not cover domain {self.domain_size}"
            )
        self.prg  # PrgSpec checks the tag and the seed length

    @classmethod
    def create(
        cls,
        parties: int,
        corrupted: int,
        modulus: Modulus,
        domain_size: int,
        lambda_bits: int = 128,
        grid: str | tuple[int, int] = GRID_AUTO,
        prg_algorithm: int = prg.PRG_SHAKE128,
    ) -> "SchemeParams":
        if isinstance(grid, str):
            rows, cols = choose_grid(
                domain_size, parties, corrupted, lambda_bits, modulus, grid
            )
        else:
            rows, cols = grid
        return cls(
            parties=parties,
            corrupted=corrupted,
            lambda_bits=lambda_bits,
            modulus=modulus,
            domain_size=domain_size,
            rows=rows,
            cols=cols,
            prg_algorithm=prg_algorithm,
        )

    @cached_property
    def prg(self) -> PrgSpec:
        """The expansion of one seed into a row of `cols` elements."""
        return PrgSpec(self.prg_algorithm, self.lambda_bits, self.cols, self.modulus)

    @cached_property
    def combo_count(self) -> int:
        """Columns per row: C(parties, corrupted+1)."""
        return comb(self.parties, self.corrupted + 1)

    @cached_property
    def tuples_per_row(self) -> int:
        """Pairs stored per key and row: C(parties-1, corrupted)."""
        return comb(self.parties - 1, self.corrupted)

    @property
    def honest_majority(self) -> bool:
        return 2 * self.corrupted < self.parties

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, slots) of shape (parties, C(parties-1, corrupted)): columns[i]
        ranks, ascending, the columns whose subset holds party i, and slots[i]
        is i's place in each.  Column j is the j-th (m+1)-subset in
        lexicographic order; the subsets are only laid out flat, as uint16.
        First it refuses a deal past EVAL_BUDGET: the dealer's target row
        of C(parties, corrupted+1) expansions, then the deal's peak, which
        is these arrays, the target row's sum and one expansion, and per
        cell the larger of `sample_seeds`' peak and the shares'; then a
        deal with fewer distinct non-zero seeds than cells."""
        factors, width, size = len(self.modulus.factors), self.corrupted + 1, self.lambda_bits // 8
        row = self.cols * factors
        check_budget(self.combo_count * row, WORD_BYTES, "a row of expansions")
        cell = max(3 * size + SEED_PEAK, (width + 1) * (size + RESIDUE_PEAK * factors))
        peak = self.combo_count * (self.rows * cell + width * LAYOUT_PEAK)
        check_budget(peak + row * (EXPANSION_PEAK + WORD_BYTES), 1, "to deal tables")
        prg._check_seed_space(self.rows * self.combo_count, self.lambda_bits)
        flat = itertools.chain.from_iterable(itertools.combinations(range(self.parties), width))
        order = np.argsort(np.fromiter(flat, np.uint16, self.combo_count * width), kind="stable")
        slots = (order % width).astype(np.uint16)
        order //= width
        return order.reshape(self.parties, -1), slots.reshape(self.parties, -1)

    def used_rows(self) -> int:
        """Rows that actually contain domain points (the last may be partial)."""
        return -(-self.domain_size // self.cols)


@dataclass(frozen=True)
class PointDescription:
    """The point function x -> beta * [x == alpha]."""

    alpha: int
    beta: FieldElement

    def validate(self, params: SchemeParams) -> None:
        check_range("alpha", self.alpha, 0, params.domain_size)
        if self.beta.modulus != params.modulus:
            raise ParameterError("beta modulus disagrees with params")


@dataclass(frozen=True, eq=False)
class DpfKey:
    """One party's key: per-row seeds and shares plus the shared correction.

    `seeds` is uint8 of shape (rows, T, lambda/8) and `shares` uint64 of
    shape (factors, rows, T) for the T = `held_count(params)` columns the
    party holds in each row: C(p-1, m) of them, in `params.layout[0][party]`
    order.  `correction` is uint64 of shape (factors, cols) over
    `params.modulus`; parties 0..m hold column 0 and so also apply it.
    """

    party: int
    params: SchemeParams
    seeds: np.ndarray
    shares: np.ndarray
    correction: np.ndarray

    @staticmethod
    def held_count(params: SchemeParams) -> int:
        return params.tuples_per_row

    def __post_init__(self) -> None:
        params = self.params
        check_range("party", self.party, 0, params.parties)
        width, factors = self.held_count(params), len(params.modulus.factors)
        if self.seeds.shape != (params.rows, width, params.lambda_bits // 8):
            raise ParameterError("seeds must have shape (rows, held columns, lambda/8)")
        if self.shares.shape != (factors, params.rows, width):
            raise ParameterError("shares must have shape (factors, rows, held columns)")
        if self.correction.shape != (factors, params.cols):
            raise ParameterError("correction must have shape (factors, cols)")

    def holds_first(self, r: int) -> bool:
        """Whether row r's column 0, whose share also scales the correction, is held."""
        return self.party <= self.params.corrupted

    def row(self, r: int) -> Row:
        """The (seeds, shares, correction or None, None) `_combine_row` takes."""
        correction = self.correction if self.holds_first(r) else None
        return self.seeds[r], self.shares[:, r], correction, None


@dataclass(frozen=True)
class CoalitionView:
    """The keys a coalition would hold, real or simulated."""

    coalition: frozenset[int]
    keys: tuple[DpfKey, ...]


def choose_grid(
    domain_size: int,
    parties: int,
    corrupted: int,
    lambda_bits: int,
    modulus: Modulus,
    mode: str = GRID_AUTO,
) -> tuple[int, int]:
    """Pick the grid shape for a domain of `domain_size` points.

    Auto mode minimizes the exact per-key bit count

        rows * C(parties-1, corrupted) * (lambda + sum_i ceil(lg q_i))
        + cols * sum_i ceil(lg q_i)

    subject to rows*cols >= domain_size, breaking ties toward fewer rows.
    Square mode returns ceil(sqrt(N)) for both sides.
    """
    if mode == GRID_SQUARE:
        side = isqrt(domain_size)
        if side * side < domain_size:
            side += 1
        return side, side
    if mode != GRID_AUTO:
        raise ParameterError(f"unknown grid mode {mode!r}")
    bits = modulus.residue_bits
    row_cost = comb(parties - 1, corrupted) * (lambda_bits + bits)
    rows, cols, _ = minimize_grid(domain_size, row_cost, bits)
    return rows, cols


def _deal(secrets: np.ndarray, count: int, modulus: Modulus, rng) -> np.ndarray:
    """Additive `count`-sharings of every column of `secrets`.

    `secrets` has shape (factors, n); the result has shape
    (factors, n, count).  For each secret in turn, the first count-1
    shares are uniform draws and the last is the secret minus their sum.
    """
    qs = modulus._qs_np
    n = secrets.shape[1]
    drawn = random_residues(modulus, n * (count - 1), rng)
    drawn = drawn.reshape(len(modulus.factors), n, count - 1)
    last = (secrets + (count - 1) * qs - np.einsum("fnc->fn", drawn)) % qs
    shares = np.concatenate([drawn, last[:, :, None]], axis=2)
    assert (np.einsum("fnc->fn", shares) % qs == secrets).all(), "sharing misses its secret"
    return shares


def _correction(
    total: np.ndarray, count: int, point: PointDescription, params: SchemeParams, prefix: bool
) -> np.ndarray:
    """Beta on the target row's columns up to the target column (only at
    it unless `prefix`) minus `total`, the unreduced sum of the target
    row's `count` expansions.  Residues are below 2**31, so that sum
    cannot wrap before 2**33 seeds, and it is below count * q: so
    count * q - total + beta is non-negative, and one `_reduce` ends it.
    """
    qs = params.modulus._qs_np
    target_col = point.alpha % params.cols
    first = 0 if prefix else target_col
    out = count * qs - total
    out[:, first : target_col + 1] += np.array(point.beta.residues, dtype=np.uint64)[:, None]
    _reduce(out, qs, np.empty_like(out))
    return out


def _reduce(values: np.ndarray, qs: np.ndarray, scratch: np.ndarray) -> None:
    """values %= qs in place, through quotients in `scratch`: on row-sized
    arrays this takes a third to a half of the time of `%=`."""
    np.floor_divide(values, qs, out=scratch)
    scratch *= qs
    values -= scratch


def _combine_row(
    spec: PrgSpec,
    seeds: np.ndarray,
    shares: np.ndarray,
    correction: np.ndarray | None = None,
    offset: np.ndarray | None = None,
    first: int = 0,
) -> np.ndarray:
    """One row's share vector on columns first..output_len-1.

    `seeds` is uint8 of shape (k, lambda/8) and `shares` uint64 of shape
    (factors, k); the result, of shape (factors, output_len - first), is
    sum_j shares[:, j] * G(seeds[j]), plus shares[:, 0] * correction when a
    correction is given, plus `offset` (reduced residues, at least
    output_len columns) when one is given, over those columns only.
    A product is at most (q-1)**2 for the largest factor q, so `period`
    of them fit in uint64 beside a reduced value; that is when to reduce.
    The offset is added before the first reduction, in that value's place.
    """
    qs = spec.modulus._qs_np
    check_budget(len(seeds) * spec.output_len * len(qs), WORD_BYTES, "a row of expansions")
    q = spec.modulus.factors[-1]
    period = ((1 << 64) - 1 - q) // (q - 1) ** 2
    shares = shares[:, :, None]
    acc = np.zeros((len(qs), spec.output_len - first), dtype=np.uint64)
    term = np.empty_like(acc)
    pending = 0
    if correction is not None:
        np.multiply(correction[:, first : spec.output_len], shares[:, 0], out=acc)
        pending = 1
    if offset is not None:
        acc += offset[:, first : spec.output_len]
    for j, seed in enumerate(seeds):
        if pending == period:
            _reduce(acc, qs, term)
            pending = 0
        np.multiply(expand(seed.tobytes(), spec, first).data, shares[:, j], out=term)
        acc += term
        pending += 1
    _reduce(acc, qs, term)
    return acc


def _gen_core(
    point: PointDescription, params: SchemeParams, rng, prefix: bool
) -> tuple[list[dict], int]:
    """Deal every party's key; returns each party's `DpfKey` fields and the target row.

    Each (row, column) cell gets a seed and an (m+1)-sharing of 1 on the
    target row and 0 elsewhere, split among the column subset's members
    in ascending order.  The correction comes from `_correction`.
    """
    if not params.honest_majority:
        raise HonestMajorityError(
            f"m must satisfy m < p/2 (got m={params.corrupted}, p={params.parties})"
        )
    point.validate(params)
    layout = params.layout  # refuses a deal past the budget before any draw
    modulus = params.modulus
    factors = len(modulus.factors)
    target_row = point.alpha // params.cols
    seeds = sample_seeds(params.rows * params.combo_count, params.lambda_bits, rng)
    seeds = seeds.reshape(params.rows, params.combo_count, -1)
    secrets = np.zeros((factors, params.rows, params.combo_count), dtype=np.uint64)
    secrets[:, target_row] = 1
    count = params.corrupted + 1
    dealt = _deal(secrets.reshape(factors, -1), count, modulus, rng)
    dealt = dealt.reshape(*secrets.shape, count)

    total = np.zeros((factors, params.cols), dtype=np.uint64)
    for seed in seeds[target_row]:
        total += expand(seed.tobytes(), params.prg).data
    correction = _correction(total, params.combo_count, point, params, prefix)

    fields = [
        dict(
            party=party,
            params=params,
            seeds=seeds[:, cols],
            shares=dealt[:, :, cols, slots],
            correction=correction,
        )
        for party, (cols, slots) in enumerate(zip(*layout))
    ]
    return fields, target_row


def gen(point: PointDescription, params: SchemeParams, rng) -> tuple[DpfKey, ...]:
    """Produce one key per party for the given point function."""
    return tuple(DpfKey(**f) for f in _gen_core(point, params, rng, prefix=False)[0])


def eval_point(key, x: int) -> FieldElement:
    """This party's additive share of f(x), for a key of any scheme."""
    params = key.params
    check_range("input", x, 0, params.domain_size)
    row, col = divmod(x, params.cols)
    # Expansions are prefix-stable, so the row's first col+1 entries suffice,
    # and each expansion returns only column col of them.
    spec = replace(params.prg, output_len=col + 1)
    data = _combine_row(spec, *key.row(row), first=col)
    return FieldElement(params.modulus, tuple(int(v) for v in data[:, 0]))


def eval_rows(key) -> Iterator[tuple[int, np.ndarray]]:
    """This party's shares row by row: (start, shares) for every used row.

    `shares` is the row's reduced (factors, width) block for domain points
    start .. start+width-1; the last row stops at the domain's end, and
    only that prefix of it is expanded.  Each held seed is expanded
    exactly once, and only one row is held at a time.
    """
    params = key.params
    for row in range(params.used_rows()):
        start = row * params.cols
        spec = replace(params.prg, output_len=min(params.cols, params.domain_size - start))
        yield start, _combine_row(spec, *key.row(row))


def eval_all(key) -> FieldVector:
    """Shares for every domain point, expanding each held seed exactly once.

    Serves a key of any scheme.  Only rows that contain domain points
    are evaluated, so a DpfKey costs used_rows() * C(parties-1, corrupted)
    expansions; with an auto grid used_rows() equals the row count.
    """
    params = key.params
    check_eval_budget(params)
    out = np.empty((len(params.modulus.factors), params.domain_size), dtype=np.uint64)
    for start, shares in eval_rows(key):
        out[:, start : start + shares.shape[1]] = shares
    return FieldVector._raw(params.modulus, out)


def decode(shares: Sequence[FieldElement], expected_count: int | None = None) -> FieldElement:
    """Combine the parties' output shares by component-wise addition."""
    if len(shares) == 0:
        raise ParameterError("cannot decode an empty share list")
    if expected_count is not None and len(shares) != expected_count:
        raise ParameterError(
            f"expected {shown(expected_count)} shares, got {len(shares)}"
        )
    return sum(shares[1:], shares[0])


def check_eval_budget(params: SchemeParams) -> None:
    """Refuse a full-domain vector past EVAL_BUDGET.  A key header may
    declare N up to rows * cols, about the square of the key's size."""
    size = len(params.modulus.factors) * params.domain_size
    check_budget(size, WORD_BYTES, "a full-domain vector")


def check_seed_coverage(parties: int, corrupted: int, coalition: Iterable[int]) -> bool:
    """True when some column's subset avoids the coalition entirely.

    That column's seed is unknown to every coalition member and is what
    keeps the correction vector masked.  The p - k parties outside a
    coalition of k hold an (m+1)-subset exactly when k <= p - m - 1, which
    with an honest majority holds at k = m.  From k = p - m on (at
    ceil(p/2) when m >= p/2), every column is covered.
    """
    members = frozenset(coalition)
    for member in members:
        check_range("coalition member", member, 0, parties)
    return len(members) <= parties - corrupted - 1


def simulate_coalition_view(
    params: SchemeParams, coalition: Iterable[int], rng
) -> CoalitionView:
    """Sample a coalition's keys from scratch, without any point function.

    Seeds are distinct, non-zero and uniform as `gen` deals them, one per
    row/column pair the coalition can see and shared between the members
    of its column; shares and the correction vector are uniform.  For any
    coalition within the corruption bound this matches the distribution
    of real keys, which is the whole privacy argument; the byte layout is
    identical to real keys by construction.
    """
    members = tuple(sorted(set(coalition)))
    if len(members) > params.corrupted:
        raise ParameterError(
            f"coalition of {len(members)} exceeds corruption bound {params.corrupted}"
        )
    for member in members:
        check_range("coalition member", member, 0, params.parties)

    columns = params.layout[0]
    visible = np.unique(columns[list(members)])
    correction = FieldVector.random(params.modulus, params.cols, rng).data
    seeds = sample_seeds(params.rows * len(visible), params.lambda_bits, rng)
    seeds = seeds.reshape(params.rows, len(visible), params.lambda_bits // 8)

    keys = []
    cells = params.rows * params.tuples_per_row
    for member in members:
        shares = random_residues(params.modulus, cells, rng)
        keys.append(
            DpfKey(
                party=member,
                params=params,
                seeds=seeds[:, np.searchsorted(visible, columns[member])],
                shares=shares.reshape(-1, params.rows, params.tuples_per_row),
                correction=correction,
            )
        )
    return CoalitionView(coalition=frozenset(members), keys=tuple(keys))
