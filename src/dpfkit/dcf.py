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

Evaluation adds the row's output share to the usual row evaluation, as
the offset that `DcfKey.row` hands to `dpf`'s evaluators.
Privacy is unchanged: the extra shares are a fresh additive sharing per
row (uniform for any proper subset of parties), and the prefix vector
stays masked behind the same uncovered-column seed as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dpf
from .algebra import FieldElement
from .errors import ParameterError
from .prg import expand  # unused here, but the benchmark wraps `dcf.expand`


@dataclass(frozen=True, eq=False)
class DcfKey(dpf.DpfKey):
    """A point-function key plus one output share per grid row, `row_outputs` (factors, rows)."""

    row_outputs: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.row_outputs.shape != (len(self.params.modulus.factors), self.params.rows):
            raise ParameterError("row_outputs must have shape (factors, rows)")

    def row(self, r: int) -> dpf.Row:
        """The point key's row, with this row's output share on every column."""
        seeds, shares, correction, _ = super().row(r)
        output = self.row_outputs[:, r : r + 1]
        return seeds, shares, correction, np.broadcast_to(output, (len(output), self.params.cols))


def dcf_gen(
    point: dpf.PointDescription, params: dpf.SchemeParams, rng
) -> tuple[DcfKey, ...]:
    fields, target_row = dpf._gen_core(point, params, rng, prefix=True)
    secrets = np.zeros((len(params.modulus.factors), params.rows), dtype=np.uint64)
    secrets[:, :target_row] = np.array(point.beta.residues)[:, None]
    row_shares = dpf._deal(secrets, params.parties, params.modulus, rng)
    return tuple(DcfKey(**f, row_outputs=row_shares[:, :, i]) for i, f in enumerate(fields))


def dcf_eval(key: DcfKey, x: int) -> FieldElement:
    """This party's additive share of beta * [x <= alpha]."""
    return dpf.eval_point(key, x)
