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

from . import dpf
from .algebra import FieldElement, FieldVector
from .errors import ParameterError
from .prg import expand  # unused here, but the benchmark wraps `dcf.expand`


@dataclass(frozen=True)
class DcfKey:
    """A point-function key plus one output share per grid row."""

    point_key: dpf.DpfKey
    row_outputs: FieldVector

    def __post_init__(self) -> None:
        if len(self.row_outputs) != self.point_key.params.rows:
            raise ParameterError("need exactly one output share per row")

    @property
    def party(self) -> int:
        return self.point_key.party

    @property
    def params(self) -> dpf.SchemeParams:
        return self.point_key.params


def dcf_gen(
    point: dpf.PointDescription, params: dpf.SchemeParams, rng
) -> tuple[DcfKey, ...]:
    keys, target_row = dpf._gen_core(point, params, rng, prefix=True)
    modulus = params.modulus
    secrets = np.zeros((len(modulus.factors), params.rows), dtype=np.uint64)
    secrets[:, :target_row] = np.array(point.beta.residues)[:, None]
    row_shares = dpf._deal(secrets, params.parties, modulus, rng)
    return tuple(
        DcfKey(key, FieldVector._raw(modulus, row_shares[:, :, key.party]))
        for key in keys
    )


def dcf_eval(key: DcfKey, x: int) -> FieldElement:
    """This party's additive share of beta * [x <= alpha]."""
    return dpf.eval_point(key.point_key, x) + key.row_outputs[x // key.params.cols]


def dcf_eval_all(key: DcfKey) -> FieldVector:
    """Shares for every domain point: `eval_all` plus each row's output share."""
    params = key.params
    outputs = np.repeat(key.row_outputs.data, params.cols, axis=1)
    return dpf.eval_all(key.point_key) + FieldVector._raw(
        params.modulus, outputs[:, : params.domain_size]
    )
