"""Distributed comparison function: shares of f(x) = beta * [x <= alpha].

Derived here from the point-function machinery rather than taken from a
published construction, so treat it as this package's own extension and
rely on the exhaustive tests for its correctness story.  Two changes on
top of `dpf.gen`:

* the correction vector for the target row completes to a prefix vector
  (beta at every column up to the target column, zero after) instead of
  a unit vector, which settles all comparisons inside the target row;
* each key carries one extra output share per row, and the p shares of
  row r sum to beta exactly when r lies strictly below the target row,
  which settles all comparisons across rows.

Evaluation adds the row's output share to the usual row evaluation.
Privacy is unchanged: the extra shares are a fresh additive sharing per
row (uniform for any proper subset of parties), and the prefix vector
stays masked behind the same uncovered-column seed as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FieldElement, FieldVector
from .dpf import (
    DpfKey,
    PointDescription,
    SchemeParams,
    _deal,
    _deal_cells,
    _eval_row,
    _party_keys,
    _require_honest_majority,
)
from .errors import ParameterError
from .prg import expand


@dataclass(frozen=True)
class DcfKey:
    """A point-function key plus one output share per grid row."""

    point_key: DpfKey
    row_outputs: FieldVector

    def __post_init__(self) -> None:
        if len(self.row_outputs) != self.point_key.params.rows:
            raise ParameterError("need exactly one output share per row")

    @property
    def party(self) -> int:
        return self.point_key.party

    @property
    def params(self) -> SchemeParams:
        return self.point_key.params


def dcf_gen(point: PointDescription, params: SchemeParams, rng) -> tuple[DcfKey, ...]:
    _require_honest_majority(params)
    point.validate(params)
    modulus = params.modulus
    target_row, target_col = divmod(point.alpha, params.cols)

    seeds, dealt = _deal_cells(params, target_row, rng)

    total = FieldVector.zeros(modulus, params.cols)
    for seed in seeds[target_row]:
        total = total + expand(seed, params.prg)
    beta = np.array(point.beta.residues, dtype=np.uint64).reshape(-1, 1)
    prefix = np.zeros((len(modulus.factors), params.cols), dtype=np.uint64)
    prefix[:, : target_col + 1] = beta
    correction = FieldVector._raw(modulus, prefix) - total

    secrets = np.zeros((len(modulus.factors), params.rows), dtype=np.uint64)
    secrets[:, :target_row] = beta
    row_shares = _deal(secrets, params.parties, modulus, rng)
    return tuple(
        DcfKey(key, FieldVector._raw(modulus, row_shares[:, :, key.party]))
        for key in _party_keys(params, seeds, dealt, correction)
    )


def dcf_eval(key: DcfKey, x: int) -> FieldElement:
    """This party's additive share of beta * [x <= alpha]."""
    params = key.params
    if not 0 <= x < params.domain_size:
        raise ParameterError(f"input {x} outside domain [0, {params.domain_size})")
    row, col = divmod(x, params.cols)
    data = _eval_row(key.point_key, row)
    element = FieldElement(params.modulus, tuple(int(v) for v in data[:, col]))
    return element + key.row_outputs[row]
