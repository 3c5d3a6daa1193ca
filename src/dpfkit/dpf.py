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
as long as the coalition has at most p-m-1 members.  This is the
invariant `check_seed_coverage` checks; m < p/2 gives m <= p-m-1, so
every coalition of at most m parties passes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from math import comb, isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import prg
from .algebra import (
    FieldElement,
    FieldVector,
    Modulus,
    minimize_grid,
    random_residues,
)
from .errors import GuardError, HonestMajorityError, ParameterError
from .prg import PrgSpec, expand, sample_seed

GRID_AUTO = "auto"
GRID_SQUARE = "square"
EVAL_BUDGET = 1 << 32  # bytes of uint64 residues one full-domain output may take


def check_party_counts(parties: int, corrupted: int) -> None:
    """Every scheme needs 2 <= parties < 2**16 and 1 <= corrupted < parties."""
    if not 2 <= parties < 2 ** 16:
        raise ParameterError(f"party count {parties} out of range")
    if not 1 <= corrupted < parties:
        raise ParameterError(f"corruption bound {corrupted} must be in [1, {parties})")


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
        if not 1 <= self.domain_size < 2 ** 64:
            raise ParameterError(f"domain size {self.domain_size} out of range")
        if not 1 <= self.rows < 2 ** 32 or not 1 <= self.cols < 2 ** 32:
            raise ParameterError(f"bad grid {self.rows}x{self.cols}")
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
    def combinations(self) -> tuple[tuple[int, ...], ...]:
        """All (m+1)-subsets of the parties in rank order, one per column."""
        return tuple(itertools.combinations(range(self.parties), self.corrupted + 1))

    def member_columns(self, party: int) -> tuple[int, ...]:
        """Ranks of the columns whose subset contains `party`, ascending."""
        if not 0 <= party < self.parties:
            raise ParameterError(f"party {party} out of range for p={self.parties}")
        return tuple(j for j, s in enumerate(self.combinations) if party in s)

    def used_rows(self) -> int:
        """Rows that actually contain domain points (the last may be partial)."""
        return -(-self.domain_size // self.cols)


@dataclass(frozen=True)
class PointDescription:
    """The point function x -> beta * [x == alpha]."""

    alpha: int
    beta: FieldElement

    def validate(self, params: SchemeParams) -> None:
        if not 0 <= self.alpha < params.domain_size:
            raise ParameterError(
                f"alpha {self.alpha} outside domain [0, {params.domain_size})"
            )
        if self.beta.modulus != params.modulus:
            raise ParameterError("beta modulus disagrees with params")


@dataclass(frozen=True, eq=False)
class DpfKey:
    """One party's key: per-row seeds and shares plus the shared correction.

    `seeds` is uint8 of shape (rows, C(p-1, m), lambda/8) and `shares` is
    uint64 of shape (factors, rows, C(p-1, m)); both list the party's
    columns in `params.member_columns(party)` order.  Parties 0..m hold
    column 0 and so also apply the correction.
    """

    party: int
    params: SchemeParams
    seeds: np.ndarray
    shares: np.ndarray
    correction: FieldVector

    def __post_init__(self) -> None:
        params = self.params
        if not 0 <= self.party < params.parties:
            raise ParameterError(f"party {self.party} out of range")
        width = params.tuples_per_row
        if self.seeds.shape != (params.rows, width, params.lambda_bits // 8):
            raise ParameterError(f"seeds must have shape (rows, {width}, lambda/8)")
        if self.shares.shape != (len(params.modulus.factors), params.rows, width):
            raise ParameterError(f"shares must have shape (factors, rows, {width})")
        if len(self.correction) != params.cols:
            raise ParameterError("correction length disagrees with grid")

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray, FieldVector | None]:
        """The (seeds, shares, correction or None) that `_combine_row` takes."""
        # Column 0 is the subset {0, ..., m}; its members also multiply that
        # column's share into the public correction vector.
        holds_first = self.party <= self.params.corrupted
        return self.seeds[r], self.shares[:, r], self.correction if holds_first else None


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


def _distinct_seeds(params: SchemeParams, rng) -> np.ndarray:
    """A distinct non-zero seed for every (row, column) cell.

    Returns uint8 of shape (rows, columns, lambda/8).  Reads the stream as
    one `sample_seed` call per candidate would: each read asks for exactly
    the seeds still missing, and a candidate that is all zero or already
    taken is skipped.  A read is split into seeds in one NumPy pass, and an
    insertion-ordered dict keeps each seed where it first came up; the
    all-zero seed is then dropped from it.
    """
    size = params.lambda_bits // 8
    want = params.rows * params.combo_count
    if want >= 256 ** size:
        raise ParameterError(f"{want} cells exceed the {256 ** size - 1} {size}-byte seeds")
    taken: dict[bytes, None] = {}
    while len(taken) < want:
        blob = rng.randbytes(size * (want - len(taken)))
        taken.update(dict.fromkeys(np.frombuffer(blob, dtype=f"V{size}").tolist()))
        taken.pop(bytes(size), None)
    table = np.frombuffer(b"".join(taken), dtype=np.uint8)
    return table.reshape(params.rows, params.combo_count, size)


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
    last = (secrets + (count - 1) * qs - drawn.sum(axis=2)) % qs
    shares = np.concatenate([drawn, last[:, :, None]], axis=2)
    assert (shares.sum(axis=2) % qs == secrets).all(), "sharing misses its secret"
    return shares


def _reduce(values: np.ndarray, qs: np.ndarray, scratch: np.ndarray) -> None:
    """values %= qs in place, through quotients in `scratch`: on row-sized
    arrays this takes a third to a half of the time of `%=`."""
    np.floor_divide(values, qs, out=scratch)
    scratch *= qs
    values -= scratch


def _combine_row(
    seeds: np.ndarray,
    shares: np.ndarray,
    spec: PrgSpec,
    correction: FieldVector | None = None,
    first: int = 0,
) -> np.ndarray:
    """One row's share vector on columns first..output_len-1.

    `seeds` is uint8 of shape (k, lambda/8) and `shares` uint64 of shape
    (factors, k); the result, of shape (factors, output_len - first), is
    sum_j shares[:, j] * G(seeds[j]), plus shares[:, 0] * correction when a
    correction is given, over those columns only.
    A product is at most (q-1)**2 for the largest factor q, so `period`
    of them fit in uint64 beside a reduced value; that is when to reduce.
    """
    qs = spec.modulus._qs_np
    q = spec.modulus.factors[-1]
    period = ((1 << 64) - 1 - q) // (q - 1) ** 2
    shares = shares[:, :, None]
    acc = np.zeros((len(qs), spec.output_len - first), dtype=np.uint64)
    term = np.empty_like(acc)
    pending = 0
    if correction is not None:
        np.multiply(correction.data[:, first : spec.output_len], shares[:, 0], out=acc)
        pending = 1
    for j, seed in enumerate(seeds):
        if pending == period:
            _reduce(acc, qs, term)
            pending = 0
        np.multiply(expand(seed.tobytes(), spec).data[:, first:], shares[:, j], out=term)
        acc += term
        pending += 1
    _reduce(acc, qs, term)
    return acc


def _gen_core(
    point: PointDescription, params: SchemeParams, rng, prefix: bool
) -> tuple[tuple[DpfKey, ...], int]:
    """Deal every party's key; returns the keys and the target row.

    Each (row, column) cell gets a seed and an (m+1)-sharing of 1 on the
    target row and 0 elsewhere, split among the column subset's members
    in ascending order.  The correction is beta on the target row's
    columns up to the target column (only at it unless `prefix`) minus
    the sum of that row's expanded seeds.
    """
    if not params.honest_majority:
        raise HonestMajorityError(
            f"m must satisfy m < p/2 (got m={params.corrupted}, p={params.parties})"
        )
    point.validate(params)
    modulus = params.modulus
    factors = len(modulus.factors)
    target_row, target_col = divmod(point.alpha, params.cols)
    seeds = _distinct_seeds(params, rng)
    secrets = np.zeros((factors, params.rows, params.combo_count), dtype=np.uint64)
    secrets[:, target_row] = 1
    count = params.corrupted + 1
    dealt = _deal(secrets.reshape(factors, -1), count, modulus, rng)
    dealt = dealt.reshape(*secrets.shape, count)

    # Residues are below 2**31, so the sum cannot wrap before 2**33 seeds,
    # and it stays below C(p, m+1) * q: adding that multiple of q before
    # subtracting keeps the difference non-negative for one reduction.
    qs = modulus._qs_np
    total = np.zeros((factors, params.cols), dtype=np.uint64)
    for seed in seeds[target_row]:
        total += expand(seed.tobytes(), params.prg).data
    target = np.zeros((factors, params.cols), dtype=np.uint64)
    first = 0 if prefix else target_col
    target[:, first : target_col + 1] = np.array(point.beta.residues)[:, None]
    target += params.combo_count * qs
    correction = FieldVector._raw(modulus, (target - total) % qs)

    keys = []
    for party in range(params.parties):
        cols = list(params.member_columns(party))
        slots = [params.combinations[j].index(party) for j in cols]
        keys.append(
            DpfKey(
                party=party,
                params=params,
                seeds=seeds[:, cols],
                shares=dealt[:, :, cols, slots],
                correction=correction,
            )
        )
    return tuple(keys), target_row


def gen(point: PointDescription, params: SchemeParams, rng) -> tuple[DpfKey, ...]:
    """Produce one key per party for the given point function."""
    return _gen_core(point, params, rng, prefix=False)[0]


def _eval_row(key, row: int) -> np.ndarray:
    """This party's share vector for one grid row, shape (factors, cols)."""
    seeds, shares, correction = key.row(row)
    return _combine_row(seeds, shares, key.params.prg, correction)


def eval_point(key, x: int) -> FieldElement:
    """This party's additive share of f(x); `key` is a DpfKey or a BoyleKey."""
    params = key.params
    if not 0 <= x < params.domain_size:
        raise ParameterError(f"input {x} outside domain [0, {params.domain_size})")
    row, col = divmod(x, params.cols)
    # Expansions are prefix-stable, so the row's first col+1 entries suffice,
    # and only column col of them is combined.
    seeds, shares, correction = key.row(row)
    spec = replace(params.prg, output_len=col + 1)
    data = _combine_row(seeds, shares, spec, correction, first=col)
    return FieldElement(params.modulus, tuple(int(v) for v in data[:, 0]))


def eval_rows(key) -> Iterator[tuple[int, np.ndarray]]:
    """This party's shares row by row: (start, shares) for every used row.

    `shares` is the row's reduced (factors, width) block for domain points
    start .. start+width-1; the last row is trimmed to the domain.  Each
    held seed is expanded exactly once, and only one row is held at a time.
    """
    params = key.params
    for row in range(params.used_rows()):
        start = row * params.cols
        yield start, _eval_row(key, row)[:, : params.domain_size - start]


def eval_all(key) -> FieldVector:
    """Shares for every domain point, expanding each held seed exactly once.

    `key` is a DpfKey or a BoyleKey.  Only rows that contain domain points
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
            f"expected {expected_count} shares, got {len(shares)}"
        )
    total = shares[0]
    for s in shares[1:]:
        total = total + s
    return total


def check_eval_budget(params: SchemeParams) -> None:
    """Refuse a full-domain output of more than EVAL_BUDGET bytes.

    A key header may declare N up to rows * cols, about the square of the
    key's size, so this is checked before anything of size N is allocated.
    """
    size = 8 * len(params.modulus.factors) * params.domain_size
    if size > EVAL_BUDGET:
        raise GuardError(
            f"refusing full-domain evaluation: {size} bytes of output "
            f"exceeds the budget of {EVAL_BUDGET}"
        )


def check_seed_coverage(parties: int, corrupted: int, coalition: Iterable[int]) -> bool:
    """True when some column's subset avoids the coalition entirely.

    That column's seed is unknown to every coalition member and is what
    keeps the correction vector masked.  With an honest majority this
    holds for every coalition of size `corrupted`; once the coalition
    reaches p - m members (always true at size ceil(p/2) when m >= p/2),
    every column is covered and the argument collapses.
    """
    members = frozenset(coalition)
    for member in members:
        if not 0 <= member < parties:
            raise ParameterError(f"coalition member {member} out of range")
    return any(
        not members.intersection(subset)
        for subset in itertools.combinations(range(parties), corrupted + 1)
    )


def simulate_coalition_view(
    params: SchemeParams, coalition: Iterable[int], rng
) -> CoalitionView:
    """Sample a coalition's keys from scratch, without any point function.

    Seeds are uniform (one per row/column pair the coalition can see,
    shared between members of the same column), shares are uniform and
    independent, and the correction vector is uniform.  For any coalition
    within the corruption bound this matches the distribution of real
    keys, which is the whole privacy argument; the byte layout is
    identical to real keys by construction.
    """
    members = tuple(sorted(set(coalition)))
    if len(members) > params.corrupted:
        raise ParameterError(
            f"coalition of {len(members)} exceeds corruption bound {params.corrupted}"
        )
    for member in members:
        if not 0 <= member < params.parties:
            raise ParameterError(f"coalition member {member} out of range")

    correction = FieldVector.random(params.modulus, params.cols, rng)
    visible = sorted(
        {j for member in members for j in params.member_columns(member)}
    )
    seed_len = params.lambda_bits // 8
    seeds = np.zeros((params.rows, params.combo_count, seed_len), dtype=np.uint8)
    for row in range(params.rows):
        for j in visible:
            seeds[row, j] = list(sample_seed(params.lambda_bits, rng))

    keys = []
    cells = params.rows * params.tuples_per_row
    for member in members:
        shares = random_residues(params.modulus, cells, rng)
        keys.append(
            DpfKey(
                party=member,
                params=params,
                seeds=seeds[:, list(params.member_columns(member))],
                shares=shares.reshape(-1, params.rows, params.tuples_per_row),
                correction=correction,
            )
        )
    return CoalitionView(coalition=frozenset(members), keys=tuple(keys))
