"""Moments over time, error measures, convergence-order bookkeeping and the
geometric error bounds of the series methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cases import CaseSpec, exact_concentration
from .errors import DomainError, NoExactReferenceError
from .fvm import FvmSolution
from .grid import Grid, GridFunction, l1_norm, quad_moment
from .series import SeriesSolution, truncated_sum

__all__ = [
    "MomentTable",
    "moments_over_time",
    "abs_error_grid",
    "number_error",
    "eoc",
    "consecutive_term_norm",
    "geometric_error_bound",
    "ham_contraction",
]

_GL20_NODES, _GL20_WEIGHTS = np.polynomial.legendre.leggauss(20)

MASS_DRIFT_TOL = 1e-2


@dataclass(frozen=True)
class MomentTable:
    """Rows of (time, M0, M1, M2) for one case/method pair."""

    case_id: str
    method: str
    times: tuple[float, ...]
    rows: tuple[tuple[float, float, float], ...]
    mass_drift_flagged: bool = field(default=False)

    def moment(self, order: int) -> tuple[float, ...]:
        if order not in (0, 1, 2):
            raise DomainError("tabulated moments cover orders 0..2")
        return tuple(row[order] for row in self.rows)


def moments_over_time(
    solution: FvmSolution | SeriesSolution,
    times=None,
    mass_drift_tol: float = MASS_DRIFT_TOL,
) -> MomentTable:
    """Tabulate moments 0..2 along the time axis of a solution.

    Finite-volume solutions carry their own output times; series solutions are
    evaluated at the ``times`` provided.  The table is flagged when the mass
    column drifts from its initial value by more than ``mass_drift_tol``
    (relative).
    """
    if isinstance(solution, FvmSolution):
        tvals = tuple(float(t) for t in solution.times)
        rows = tuple((float(a), float(b), float(c)) for a, b, c in solution.moments)
        label = "fvm"
    else:
        if times is None:
            raise DomainError("series solutions need explicit output times")
        tvals = tuple(float(t) for t in times)
        rows = []
        for t in tvals:
            g = truncated_sum(solution, solution.order, t)
            rows.append(tuple(quad_moment(g, n) for n in (0, 1, 2)))
        rows = tuple(rows)
        label = solution.method
    mass0 = rows[0][1]
    flagged = any(
        abs(row[1] - mass0) > mass_drift_tol * abs(mass0) for row in rows[1:]
    )
    return MomentTable(
        case_id=solution.case.id,
        method=label,
        times=tvals,
        rows=rows,
        mass_drift_flagged=flagged,
    )


def abs_error_grid(approx: GridFunction, case: CaseSpec, t: float) -> GridFunction:
    """Pointwise absolute difference from the closed-form concentration."""
    exact = exact_concentration(case, t, approx.grid.midpoints)
    return GridFunction(approx.grid, np.abs(approx.values - exact))


def _reference_number(case: CaseSpec, grid: Grid, t: float) -> float:
    """High-accuracy total number of the exact solution over the grid domain."""
    half = 0.5 * grid.widths
    mid = grid.midpoints
    total = 0.0
    for node, weight in zip(_GL20_NODES, _GL20_WEIGHTS):
        x = mid + half * node
        total += weight * float(np.sum(exact_concentration(case, t, x) * half))
    return total


def number_error(approx: GridFunction, case: CaseSpec, t: float) -> float:
    """Total-number discrepancy between an approximation and the exact solution."""
    if case.exact.concentration is None:
        raise NoExactReferenceError(f"case {case.id!r} has no exact concentration")
    grid = approx.grid
    numeric = float(np.sum(approx.values * grid.widths))
    return abs(_reference_number(case, grid, t) - numeric)


def eoc(error_coarse: float, error_fine: float) -> float:
    """Experimental order of convergence between a grid and its doubling."""
    if error_coarse <= 0 or error_fine <= 0:
        raise DomainError("convergence order needs strictly positive errors")
    return math.log(error_coarse / error_fine) / math.log(2.0)


def consecutive_term_norm(series: SeriesSolution, m: int) -> float:
    """L1 size of series term ``m`` at the case horizon.

    Equals the L1 distance between the order-``m`` and order-``m-1`` truncated
    sums, since the terms are exactly their difference.
    """
    if not 0 <= m <= series.order:
        raise DomainError(f"order {m} exceeds the series order {series.order}")
    return l1_norm(series.terms[m].eval(series.case.tend))


def geometric_error_bound(contraction: float, m: int, f1_norm: float) -> float:
    """Geometric tail bound ``contraction**m / (1 - contraction) * f1_norm``."""
    if not 0.0 < contraction < 1.0:
        raise DomainError(f"contraction factor must lie in (0, 1), got {contraction}")
    if m < 0:
        raise DomainError("order must be non-negative")
    if f1_norm < 0:
        raise DomainError("norm of the first correction must be non-negative")
    return contraction**m / (1.0 - contraction) * f1_norm


def ham_contraction(xi: float, alpha: float) -> float:
    """Effective contraction factor ``xi * |alpha| + |1 + alpha|`` of the
    control-parameter recursion."""
    if xi < 0:
        raise DomainError("contraction input must be non-negative")
    return xi * abs(alpha) + abs(1.0 + alpha)
