"""Reference schemes the compressed construction is measured against.

`boyle_gen` implements the classic multi-party construction whose rows
enumerate every possible share vector: q^(p-1) columns per grid row, one
seed per column, a party learning a column's seed exactly when its share
there is non-zero.  Hiding the target row forces carrying all q^(p-1)
columns, which is why its keys blow up exponentially in the party count;
a hard guard refuses parameter sets past 2**20 columns because the
scheme exists here to be measured, not used.

`trivial_gen` additively shares the whole truth table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FieldElement, FieldVector
from .dpf import PointDescription, SchemeParams, _combine_row
from .errors import FormatError, GuardError, ParameterError
from .prg import expand, sample_seed

COLUMN_GUARD = 1 << 20


def boyle_column_count(params: SchemeParams) -> int:
    """Columns per row: q^(p-1) over the (prime) modulus value."""
    q = params.modulus.value
    return q ** (params.parties - 1)


@dataclass(frozen=True, eq=False)
class BoyleKey:
    """Sparse per-row storage of the columns where this party's share is non-zero.

    Each row is (columns, seeds, shares): uint32 of shape (k,) in ascending
    order, uint8 of shape (k, lambda/8) and uint64 of shape (1, k).
    """

    party: int
    params: SchemeParams
    rows: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    correction: FieldVector


@dataclass(frozen=True)
class TrivialKey:
    party: int
    params: SchemeParams
    table: FieldVector


def require_prime(modulus) -> None:
    if len(modulus.factors) != 1:
        raise ParameterError(
            "the full-enumeration baseline works over prime moduli only; "
            "run one instance per factor for composites"
        )


def check_guard(q: int, parties: int) -> None:
    count = q ** (parties - 1)
    if count > COLUMN_GUARD:
        raise GuardError(
            f"refusing exponential blow-up: q^(p-1) = {count} columns per row "
            f"exceeds the guard of {COLUMN_GUARD}"
        )


def boyle_gen(point: PointDescription, params: SchemeParams, rng) -> tuple[BoyleKey, ...]:
    """Generate full-enumeration keys; any corrupted < parties is allowed."""
    require_prime(params.modulus)
    check_guard(params.modulus.value, params.parties)
    point.validate(params)
    q = params.modulus.value
    parties = params.parties
    target_row, target_col = divmod(point.alpha, params.cols)
    count = boyle_column_count(params)

    # Every length-p vector summing to 0: row i is (head, tail) for the
    # i-th tail in itertools.product order.  The target row's vectors sum
    # to 1 instead, which only moves the head.
    tails = np.arange(count)[:, None] // q ** np.arange(parties - 2, -1, -1) % q
    sum_zero = np.concatenate([-tails.sum(axis=1, keepdims=True) % q, tails], axis=1)
    sum_one = sum_zero.copy()
    sum_one[:, 0] = (sum_one[:, 0] + 1) % q

    per_party_rows: list[list[tuple]] = [[] for _ in range(parties)]
    total = FieldVector.zeros(params.modulus, params.cols)
    for row in range(params.rows):
        order = list(range(count))
        rng.shuffle(order)
        vectors = (sum_one if row == target_row else sum_zero)[order]
        seeds = [sample_seed(params.lambda_bits, rng) for _ in range(count)]
        if row == target_row:
            for seed in seeds:
                total = total + expand(seed, params.prg)
        seeds = np.frombuffer(b"".join(seeds), dtype=np.uint8).reshape(count, -1)
        for party in range(parties):
            held = np.flatnonzero(vectors[:, party])
            shares = vectors[held, party].astype(np.uint64)[None, :]
            per_party_rows[party].append((held.astype(np.uint32), seeds[held], shares))

    unit = FieldVector.unit(params.modulus, params.cols, target_col, point.beta)
    correction = unit - total
    return tuple(
        BoyleKey(party=party, params=params, rows=tuple(rows), correction=correction)
        for party, rows in enumerate(per_party_rows)
    )


def _boyle_row(key: BoyleKey, row: int) -> np.ndarray:
    """This party's share vector for one grid row, shape (1, cols)."""
    columns, seeds, shares = key.rows[row]
    # Column 0's share also multiplies the public correction vector.
    holds_first = columns.size > 0 and columns[0] == 0
    correction = key.correction if holds_first else None
    return _combine_row(seeds, shares, key.params.prg, correction)


def boyle_eval(key: BoyleKey, x: int) -> FieldElement:
    params = key.params
    if not 0 <= x < params.domain_size:
        raise ParameterError(f"input {x} outside domain [0, {params.domain_size})")
    row, col = divmod(x, params.cols)
    return FieldVector._raw(params.modulus, _boyle_row(key, row))[col]


def boyle_eval_all(key: BoyleKey) -> FieldVector:
    """Shares for every domain point, one row evaluation per used row."""
    params = key.params
    rows = [_boyle_row(key, row) for row in range(params.used_rows())]
    data = np.concatenate(rows, axis=1)[:, : params.domain_size]
    return FieldVector._raw(params.modulus, data)


def trivial_gen(point: PointDescription, params: SchemeParams, rng) -> tuple[TrivialKey, ...]:
    """Additive sharing of the full truth table."""
    point.validate(params)
    truth = FieldVector.unit(
        params.modulus, params.domain_size, point.alpha, point.beta
    )
    tables = [
        FieldVector.random(params.modulus, params.domain_size, rng)
        for _ in range(params.parties - 1)
    ]
    rest = truth
    for t in tables:
        rest = rest - t
    tables.append(rest)
    return tuple(
        TrivialKey(party=i, params=params, table=t) for i, t in enumerate(tables)
    )


def trivial_eval(key: TrivialKey, x: int) -> FieldElement:
    if not 0 <= x < key.params.domain_size:
        raise ParameterError(
            f"input {x} outside domain [0, {key.params.domain_size})"
        )
    return key.table[x]


def trivial_eval_all(key: TrivialKey) -> FieldVector:
    return key.table


def reconstruct_share_vectors(keys: tuple[BoyleKey, ...], row: int):
    """Rebuild the row's full column -> share-vector map from sparse keys.

    Columns absent from every key are the all-zero vector.  Used by tests
    to confirm the enumeration property.
    """
    if not keys:
        raise ParameterError("need at least one key")
    params = keys[0].params
    count = boyle_column_count(params)
    vectors = np.zeros((count, params.parties), dtype=np.int64)
    for key in keys:
        columns, _seeds, shares = key.rows[row]
        if (columns >= count).any():
            raise FormatError("column index out of range")
        vectors[columns, key.party] = shares[0]
    return [tuple(v) for v in vectors.tolist()]
