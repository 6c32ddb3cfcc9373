"""Semi-discrete finite-volume solver and its Taylor-series time integration.

The right-hand side is the shared collision operator (``collision``) with the
cell rule for discrete fragments: fragments produced by parents in cell ``j``
land in target cells ``i <= j``, and the discrete fragment count per event is
exact.  Time steps are adaptive stages of the operator's Taylor recursion
(``CollisionOperator.taylor_rows``), the one the series solvers build from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import CaseSpec
from .collision import CollisionOperator, _poly_eval, birth_map
from .errors import DivergenceError, DomainError, StiffnessError
from .grid import Grid, GridFunction, _projected

__all__ = ["FvmSolution", "precompute_weights", "integrate"]


def precompute_weights(grid: Grid, breakage):
    """Cell-rule birth map (a ``collision.FragWeights``) for one breakage law on
    one grid; applying it costs O(N)."""
    return birth_map(grid, breakage)


# Taylor order of a stage, and the tolerances that set its length
_ORDER = 12
_ATOL = 1e-8
_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class FvmSolution:
    """Time-stamped concentration snapshots plus the stepper's work counts: Taylor
    stages, and operator applications (parent passes, ``_ORDER`` per stage)."""

    case: CaseSpec
    grid: Grid
    times: np.ndarray
    snapshots: tuple[GridFunction, ...]
    step_count: int
    rhs_evaluations: int


def _rms(x: np.ndarray) -> float:
    # a numpy sum, not a BLAS dot, so the norm does not depend on the thread count
    return np.sqrt((x * x).sum()) / x.size**0.5


def _taylor_stages(operator, y0: np.ndarray, out_times: np.ndarray) -> tuple[list, int]:
    """Adaptive Taylor stages of order ``_ORDER`` from 0 to ``out_times[-1]``.

    Each stage takes the ``taylor_rows`` at its start ``y`` and the length
    ``min(e1**(-1/(m-1)), e2**(-1/m))`` from the RMS norms ``e1, e2`` of the last two
    rows scaled by ``_ATOL + _RTOL |y|`` (Jorba & Zou, Exp. Math. 14, 2005), clamped
    to the horizon; the output times inside it and its end are one Horner pass.
    """
    t_end = float(out_times[-1])
    t, y = 0.0, y0
    snapshots, next_idx, stages = [y0], 1, 0
    while t < t_end:
        # overflow and its NaNs are caught below as non-finite rows or states
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows = operator.taylor_rows(y, _ORDER)
            if not np.isfinite(rows).all():
                raise DivergenceError(f"non-finite Taylor rows at t={t:.6g}")
            scale = _ATOL + _RTOL * np.abs(y)
            e1, e2 = (_rms(row / scale) for row in rows[-2:])
            h = min(e1 ** (-1 / (_ORDER - 1)), e2 ** (-1 / _ORDER))
            # ten ulps of t: a shorter stage no longer moves t by a reliable amount
            if h < 10 * np.spacing(t):
                raise StiffnessError(f"Taylor stage {h:.3e} below the spacing at t={t:.6g}")
            t_new = min(t + h, t_end)
            stop = np.searchsorted(out_times, t_new, side="right")
            values = _poly_eval(rows, np.append(out_times[next_idx:stop] - t, t_new - t))
        # unbound now, this stage's rows would stay alive through the next stage's recursion
        del rows
        if not np.isfinite(values).all():
            raise DivergenceError(f"non-finite state at t={t_new:.6g}")
        snapshots.extend(values[:-1])
        t, y, next_idx, stages = t_new, values[-1], stop, stages + 1
    return snapshots, stages


def integrate(case: CaseSpec, grid: Grid, times) -> FvmSolution:
    """Advance the projected initial condition through the requested output times.

    ``times`` must be ascending, start at 0 and stay within the case horizon.
    The snapshot at time 0 is the projected initial condition itself.  The
    stepper takes adaptive Taylor stages (``_taylor_stages``), whose lengths do
    not depend on the output times; it raises ``StiffnessError`` when a stage
    falls below ten ulps of t.
    """
    out_times = np.asarray(times, dtype=float)
    if out_times.ndim != 1 or out_times.size < 1:
        raise DomainError("need at least one output time")
    if out_times[0] != 0.0:
        raise DomainError("output times must start at 0")
    if np.any(np.diff(out_times) <= 0):
        raise DomainError("output times must be strictly ascending")
    if not case.within_horizon(out_times[-1]):
        raise DomainError(
            f"last output time {out_times[-1]} exceeds the case horizon {case.tend}"
        )

    operator = CollisionOperator(precompute_weights(grid, case.breakage), case.kernel)
    raw, stages = _taylor_stages(operator, _projected(case.init, grid), out_times)
    return FvmSolution(
        case=case,
        grid=grid,
        times=out_times.copy(),
        snapshots=tuple(GridFunction(grid, y) for y in raw),
        step_count=stages,
        rhs_evaluations=_ORDER * stages,
    )
