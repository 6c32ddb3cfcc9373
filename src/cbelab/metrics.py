"""Moments over time, error measures and convergence-order bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cases import CaseSpec, exact_concentration
from .errors import DomainError, GridMismatchError, NoExactReferenceError
from .grid import Grid, GridFunction, _moments, l1_norm, quad_moment
from .series import SeriesSolution

__all__ = [
    "MomentTable",
    "moments_over_time",
    "abs_error_grid",
    "number_error",
    "reference_moment",
    "eoc",
    "consecutive_term_norm",
]

_GL20_NODES, _GL20_WEIGHTS = np.polynomial.legendre.leggauss(20)

MASS_DRIFT_TOL = 1e-2


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Moments M0–M2 (shape ``(len(times), 3)``) and minimum of each profile, and the
    largest relative drift of the mass M1 from its initial value."""

    times: tuple[float, ...]
    moments: np.ndarray
    minimum: np.ndarray
    mass_drift: float
    mass_drift_flagged: bool


def moments_over_time(times, profiles) -> MomentTable:
    """Tabulate the midpoint-rule moments 0..2 and the minimum of the profile
    at each of ``times``; all profiles share one grid.  A mass drift above
    ``MASS_DRIFT_TOL`` is flagged."""
    if not len(times) or len(times) != len(profiles):
        raise DomainError(f"need one profile per output time, got {len(profiles)} for {len(times)}")
    grid = profiles[0].grid
    if any(g.grid is not grid for g in profiles):
        raise GridMismatchError("profiles live on different grids")
    values = np.array([g.values for g in profiles])
    moments = np.column_stack([_moments(grid, values, n) for n in (0, 1, 2)])
    minimum = values.min(axis=1)
    mass = moments[:, 1]
    gap = float(np.max(np.abs(mass - mass[0])))
    drift = gap / abs(mass[0]) if mass[0] else (math.inf if gap else 0.0)
    return MomentTable(
        times=tuple(float(t) for t in times),
        moments=moments,
        minimum=minimum,
        mass_drift=drift,
        mass_drift_flagged=drift > MASS_DRIFT_TOL,
    )


def abs_error_grid(approx: GridFunction, case: CaseSpec, t: float) -> GridFunction:
    """Pointwise absolute difference from the closed-form concentration."""
    exact = exact_concentration(case, t, approx.grid.midpoints)
    return GridFunction(approx.grid, np.abs(approx.values - exact))


def reference_moment(case: CaseSpec, grid: Grid, t: float, order: int = 0) -> float:
    """Moment ``order`` of the exact solution over the grid domain, by 20-point
    Gauss–Legendre quadrature on every cell."""
    half = 0.5 * grid.widths
    x = grid.midpoints + half * _GL20_NODES[:, None]
    row_sums = (x**order * exact_concentration(case, t, x) * half).sum(axis=1)
    total = 0.0
    for weight, row_sum in zip(_GL20_WEIGHTS, row_sums):
        total += weight * float(row_sum)
    return total


def number_error(approx: GridFunction, case: CaseSpec, t: float) -> float:
    """Total-number discrepancy between an approximation and the exact solution."""
    if case.exact.concentration is None:
        raise NoExactReferenceError(f"case {case.id!r} has no exact concentration")
    return abs(_reference_number(case, approx.grid, t) - quad_moment(approx, 0))


@lru_cache(maxsize=4)
def _reference_number(case: CaseSpec, grid: Grid, t: float) -> float:
    """``reference_moment(case, grid, t)``, kept for the last four grids: table 1 reads it
    for each method on each of its four grids."""
    return reference_moment(case, grid, t)


def eoc(error_coarse: float, error_fine: float) -> float:
    """Experimental order of convergence between a grid and its doubling."""
    if not (error_coarse > 0 and error_fine > 0):
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
