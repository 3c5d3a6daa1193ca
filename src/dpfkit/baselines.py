"""Reference schemes the compressed construction is measured against.

`boyle_gen` implements the classic multi-party construction whose rows
enumerate every possible share vector: q^(p-1) columns per grid row, one
seed per column, a party learning a column's seed exactly when its share
there is non-zero.  Hiding the target row forces carrying all q^(p-1)
columns, which is why its keys blow up exponentially in the party count;
a hard guard refuses parameter sets past 2**20 columns because the
scheme exists here to be measured, not used.

`trivial_gen` additively shares the whole truth table.  Both schemes'
keys are evaluated by `dpf`'s evaluators through their `row` methods.

Both deal on arrays with the helpers `dpf.gen` uses: `boyle_gen` draws
each row's seeds distinct and non-zero with `prg.sample_seeds`, and
refuses a row of more columns than such seeds before its first draw; it
builds its correction with `dpf._correction`, and `trivial_gen`
completes its last table by the rule of `dpf._deal`.  `boyle_gen`
shuffles each row with `shuffle`, so the dealer reads its rng through
`randbytes` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BOYLE_PEAK, WORD_BYTES, FieldVector, check_budget
from .dpf import DpfKey, PointDescription, Row, SchemeParams, _correction
from .errors import GuardError, ParameterError, check_range, shown
from .prg import _check_seed_space, expand, sample_seeds

COLUMN_GUARD = 1 << 20


def boyle_column_count(params: SchemeParams) -> int:
    """Columns per row, q^(p-1), once the modulus is prime and the count within the guard."""
    require_prime(params.modulus)
    return check_guard(params.modulus.value, params.parties)


def boyle_held_count(params: SchemeParams) -> int:
    """Tuples per row in every key, q^(p-2)(q-1): a share is zero in 1/q of the vectors."""
    q = params.modulus.value
    return boyle_column_count(params) // q * (q - 1)


@dataclass(frozen=True, eq=False)
class BoyleKey(DpfKey):
    """A `DpfKey` over the columns where this party's share is non-zero,
    `boyle_held_count` of them in every row: `columns` is uint32 of shape
    (rows, T), ascending in each row, and the modulus is prime.
    """

    columns: np.ndarray
    held_count = staticmethod(boyle_held_count)

    def __post_init__(self) -> None:
        super().__post_init__()
        columns, count = self.columns, boyle_column_count(self.params)
        fits = columns.shape == self.seeds.shape[:2] and (columns[:, -1] < count).all()
        if not fits or (columns[:, 1:] <= columns[:, :-1]).any():
            raise ParameterError("column indexes must be ascending and in range, shape (rows, T)")

    def holds_first(self, r: int) -> bool:
        return self.columns[r, 0] == 0


@dataclass(frozen=True, eq=False)
class TrivialKey:
    """One additive share of the whole truth table: `table` is uint64 of shape (factors, N)."""

    party: int
    params: SchemeParams
    table: np.ndarray

    def __post_init__(self) -> None:
        params = self.params
        check_range("party", self.party, 0, params.parties)
        if self.table.shape != (len(params.modulus.factors), params.domain_size):
            raise ParameterError("table must have shape (factors, domain size)")

    def row(self, r: int) -> Row:
        """No seeds: the row's slice of the table is its whole share."""
        cols, factors = self.params.cols, len(self.params.modulus.factors)
        no_seeds = np.empty((0, 0), dtype=np.uint8), np.empty((factors, 0), dtype=np.uint64)
        return *no_seeds, None, self.table[:, r * cols : (r + 1) * cols]


def require_prime(modulus) -> None:
    if len(modulus.factors) != 1:
        raise ParameterError(
            "the full-enumeration baseline works over prime moduli only; "
            "run one instance per factor for composites"
        )


def check_guard(q: int, parties: int) -> int:
    """q^(p-1), refused past COLUMN_GUARD, multiplying no further than the guard."""
    count = 1
    for _ in range(parties - 1):
        count *= q
        if count > COLUMN_GUARD:
            raise GuardError(
                f"refusing exponential blow-up: q^(p-1) = {q}^{shown(parties - 1)} "
                f"columns per row exceeds the guard of {COLUMN_GUARD}"
            )
    return count


def shuffle(items: list, rng) -> None:
    """Fisher-Yates in place, reading only `rng.randbytes`.

    Position i swaps with j, the top k = (i+1).bit_length() bits of
    `randbytes(ceil(k/8))` read big-endian, redrawn while j > i.  On a
    `DeterministicRandomSource` those are `random.Random.shuffle`'s reads.
    """
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = i + 1
        while j > i:
            j = int.from_bytes(rng.randbytes((k + 7) // 8), "big") >> (-k % 8)
        items[i], items[j] = items[j], items[i]


def boyle_gen(point: PointDescription, params: SchemeParams, rng) -> tuple[BoyleKey, ...]:
    """Generate full-enumeration keys; any corrupted < parties is allowed."""
    held = boyle_held_count(params)
    point.validate(params)
    check_budget(held * params.cols, WORD_BYTES, "a row of expansions")
    q = params.modulus.value
    parties = params.parties
    target_row = point.alpha // params.cols
    count = boyle_column_count(params)
    size = _check_seed_space(count, params.lambda_bits)  # each row's seeds, before any draw
    # Every key's held columns in all rows, and one row's q^(p-1) vectors.
    check_budget(parties * (params.rows * held + count), size + BOYLE_PEAK, "to deal tables")

    # Every length-p vector summing to 0: row i is (head, tail) for the
    # i-th tail in itertools.product order.  The target row's vectors sum
    # to 1 instead, which only moves the head.
    tails = np.arange(count)[:, None] // q ** np.arange(parties - 2, -1, -1) % q
    sum_zero = np.concatenate([-tails.sum(axis=1, keepdims=True) % q, tails], axis=1)
    sum_one = sum_zero.copy()
    sum_one[:, 0] = (sum_one[:, 0] + 1) % q

    columns = np.empty((parties, params.rows, held), dtype=np.uint32)
    seeds = np.empty((parties, params.rows, held, size), dtype=np.uint8)
    shares = np.empty((parties, 1, params.rows, held), dtype=np.uint64)
    total = np.zeros((1, params.cols), dtype=np.uint64)
    for row in range(params.rows):
        order = list(range(count))
        shuffle(order, rng)
        vectors = (sum_one if row == target_row else sum_zero)[order].T
        row_seeds = sample_seeds(count, params.lambda_bits, rng)
        if row == target_row:
            for seed in row_seeds:
                total += expand(seed.tobytes(), params.prg).data
        # Each party's non-zero coordinates: `held` of them, ascending.
        nonzero = np.nonzero(vectors)[1].reshape(parties, held)
        columns[:, row] = nonzero
        seeds[:, row] = row_seeds[nonzero]
        shares[:, 0, row] = np.take_along_axis(vectors, nonzero, axis=1)

    correction = _correction(total, count, point, params, prefix=False)
    return tuple(
        BoyleKey(party=i, params=params, seeds=s, shares=v, correction=correction, columns=c)
        for i, (c, s, v) in enumerate(zip(columns, seeds, shares))
    )


def trivial_gen(point: PointDescription, params: SchemeParams, rng) -> tuple[TrivialKey, ...]:
    """Additive sharing of the full truth table, refused past EVAL_BUDGET:
    parties 0..p-2 get uniform tables, the last the truth minus their sum.
    The peak holds p + 3 tables' words: the p - 1 drawn and 4 for the last."""
    point.validate(params)
    modulus = params.modulus
    qs = modulus._qs_np
    check_budget((params.parties + 3) * len(qs) * params.domain_size, WORD_BYTES, "truth tables")
    tables = [
        FieldVector.random(modulus, params.domain_size, rng).data
        for _ in range(params.parties - 1)
    ]
    truth = np.zeros((len(qs), params.domain_size), dtype=np.uint64)
    truth[:, point.alpha] = point.beta.residues
    tables.append((truth + (params.parties - 1) * qs - sum(tables)) % qs)
    return tuple(TrivialKey(party=i, params=params, table=t) for i, t in enumerate(tables))
