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

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import FieldElement, FieldVector
from .dpf import PointDescription, SchemeParams
from .errors import FormatError, GuardError, ParameterError
from .prg import expand, sample_seed

COLUMN_GUARD = 1 << 20


def boyle_column_count(params: SchemeParams) -> int:
    """Columns per row: q^(p-1) over the (prime) modulus value."""
    q = params.modulus.value
    return q ** (params.parties - 1)


@dataclass(frozen=True)
class BoyleKey:
    """Sparse per-row storage: (column, seed, share) for non-zero shares only."""

    party: int
    params: SchemeParams
    rows: tuple[tuple[tuple[int, bytes, FieldElement], ...], ...]
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


def _all_share_vectors(q: int, parties: int, total: int):
    """Every length-p vector over F_q summing to `total`, in a fixed order."""
    for tail in itertools.product(range(q), repeat=parties - 1):
        head = (total - sum(tail)) % q
        yield (head,) + tail


def boyle_gen(point: PointDescription, params: SchemeParams, rng) -> tuple[BoyleKey, ...]:
    """Generate full-enumeration keys; any corrupted < parties is allowed."""
    require_prime(params.modulus)
    check_guard(params.modulus.value, params.parties)
    point.validate(params)
    q = params.modulus.value
    modulus = params.modulus
    target_row, target_col = divmod(point.alpha, params.cols)
    column_count = boyle_column_count(params)

    per_party_rows: list[list[list[tuple[int, bytes, FieldElement]]]] = [
        [] for _ in range(params.parties)
    ]
    correction_total = FieldVector.zeros(modulus, params.cols)

    for row in range(params.rows):
        total = 1 if row == target_row else 0
        vectors = list(_all_share_vectors(q, params.parties, total))
        rng.shuffle(vectors)
        assert len(vectors) == column_count
        row_lists: list[list[tuple[int, bytes, FieldElement]]] = [
            [] for _ in range(params.parties)
        ]
        for column, vector in enumerate(vectors):
            seed = sample_seed(params.lambda_bits, rng)
            if row == target_row:
                correction_total = correction_total + expand(seed, params.prg)
            for party, value in enumerate(vector):
                if value != 0:
                    row_lists[party].append((column, seed, modulus.element(value)))
        for party in range(params.parties):
            per_party_rows[party].append(row_lists[party])

    correction = (
        FieldVector.unit(modulus, params.cols, target_col, point.beta)
        - correction_total
    )
    keys = []
    for party in range(params.parties):
        rows = tuple(tuple(row) for row in per_party_rows[party])
        keys.append(
            BoyleKey(party=party, params=params, rows=rows, correction=correction)
        )
    return tuple(keys)


def _boyle_row(key: BoyleKey, row: int) -> FieldVector:
    """This party's share vector for one grid row."""
    params = key.params
    tuples = key.rows[row]
    total = FieldVector.zeros(params.modulus, params.cols)
    for column, seed, share in tuples:
        total = total + expand(seed, params.prg) * share
    if tuples and tuples[0][0] == 0:
        total = total + key.correction * tuples[0][2]
    return total


def boyle_eval(key: BoyleKey, x: int) -> FieldElement:
    params = key.params
    if not 0 <= x < params.domain_size:
        raise ParameterError(f"input {x} outside domain [0, {params.domain_size})")
    row, col = divmod(x, params.cols)
    return _boyle_row(key, row)[col]


def boyle_eval_all(key: BoyleKey) -> FieldVector:
    """Shares for every domain point, one row evaluation per used row."""
    params = key.params
    rows = [_boyle_row(key, row).data for row in range(params.used_rows())]
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
    vectors = [[0] * params.parties for _ in range(count)]
    for key in keys:
        for column, _seed, share in key.rows[row]:
            if column >= count:
                raise FormatError("column index out of range")
            vectors[column][key.party] = share.lift()
    return [tuple(v) for v in vectors]
