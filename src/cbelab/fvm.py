"""Semi-discrete finite-volume solver and explicit time integration.

The right-hand side is the shared collision operator (``collision``) with the
cell rule for discrete fragments: fragments produced by parents in cell ``j``
land in target cells ``i <= j``, and the discrete fragment count per event is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45

from .cases import CaseSpec
from .collision import CollisionOperator, FragWeights, birth_map
from .errors import DivergenceError, DomainError, StiffnessError
from .grid import Grid, GridFunction, project_initial, quad_moment

__all__ = [
    "FragWeights",
    "FvmSolution",
    "precompute_weights",
    "fvm_rhs",
    "integrate",
]


def precompute_weights(grid: Grid, breakage) -> FragWeights:
    """Cell-rule birth map for one breakage law on one grid.

    Applying it costs O(N); the dense ``table`` view is built only on access.
    """
    return birth_map(grid, breakage)


def fvm_rhs(
    grid: Grid, weights: FragWeights, kernel, f: GridFunction
) -> GridFunction:
    """Time derivative of the cell averages under collision-induced breakage."""
    if f.grid is not grid or weights.grid is not grid:
        raise DomainError("grid, weights and state must share the same grid")
    return GridFunction(grid, CollisionOperator(weights, kernel).rhs(f.values))


# adaptive RK45 tolerances and the step size below which it gives up
_ATOL = 1e-8
_RTOL = 1e-6
_MIN_STEP = 1e-12


@dataclass(frozen=True, eq=False)
class FvmSolution:
    """Time-stamped concentration snapshots plus moment and health diagnostics."""

    case: CaseSpec
    grid: Grid
    times: np.ndarray
    snapshots: tuple[GridFunction, ...]
    moments: np.ndarray  # shape (len(times), 3)
    min_values: np.ndarray
    step_count: int
    rhs_evaluations: int


def _check_state(t: float, y: np.ndarray) -> None:
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"non-finite state at t={t:.6g}")


def _integrate_rk45(rhs, y0, out_times):
    t_end = float(out_times[-1])
    stepper = RK45(rhs, 0.0, y0, t_bound=t_end, atol=_ATOL, rtol=_RTOL)
    snapshots = [y0.copy()]
    next_idx = 1
    steps = 0
    while next_idx < len(out_times):
        if stepper.status == "finished":
            break
        msg = stepper.step()
        steps += 1
        if stepper.status == "failed":
            raise StiffnessError(f"adaptive step failed: {msg}")
        if stepper.step_size is not None and stepper.step_size < _MIN_STEP:
            raise StiffnessError(
                f"step size {stepper.step_size:.3e} below {_MIN_STEP:.0e}"
            )
        _check_state(stepper.t, stepper.y)
        dense = None
        while next_idx < len(out_times) and out_times[next_idx] <= stepper.t + 1e-14:
            if dense is None:
                dense = stepper.dense_output()
            snapshots.append(np.asarray(dense(out_times[next_idx]), dtype=float))
            next_idx += 1
    if next_idx < len(out_times):
        raise StiffnessError("integrator stopped before the final output time")
    return snapshots, steps


def _integrate_rk4(rhs, y0, out_times, rk4_steps: int):
    t_end = float(out_times[-1])
    dt_target = t_end / rk4_steps
    snapshots = [y0.copy()]
    y = y0.copy()
    t = 0.0
    steps = 0
    for target in out_times[1:]:
        span = target - t
        nsub = max(1, math.ceil(span / dt_target - 1e-12))
        h = span / nsub
        for _ in range(nsub):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            steps += 1
            _check_state(t, y)
        t = float(target)
        snapshots.append(y.copy())
    return snapshots, steps


def integrate(
    case: CaseSpec,
    grid: Grid,
    times,
    rk4_steps: int | None = None,
) -> FvmSolution:
    """Advance the projected initial condition through the requested output times.

    ``times`` must be ascending, start at 0 and stay within the case horizon.
    The snapshot at time 0 is the projected initial condition itself.  The
    default stepper is an adaptive embedded Runge-Kutta pair (RK45); an int
    ``rk4_steps`` selects the classical fixed-step RK4 scheme with that many
    steps over the full horizon.
    """
    if rk4_steps is not None and rk4_steps < 1:
        raise DomainError("rk4_steps must be positive")
    out_times = np.asarray(times, dtype=float)
    if out_times.ndim != 1 or out_times.size < 1:
        raise DomainError("need at least one output time")
    if out_times[0] != 0.0:
        raise DomainError("output times must start at 0")
    if np.any(np.diff(out_times) <= 0):
        raise DomainError("output times must be strictly ascending")
    if out_times[-1] > case.tend + 1e-12:
        raise DomainError(
            f"last output time {out_times[-1]} exceeds the case horizon {case.tend}"
        )

    operator = CollisionOperator(precompute_weights(grid, case.breakage), case.kernel)
    y0 = project_initial(case.init, grid).values.copy()

    evaluations = 0

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return operator.rhs(y)

    if out_times.size == 1:
        raw, steps = [y0.copy()], 0
    elif rk4_steps is None:
        raw, steps = _integrate_rk45(rhs, y0, out_times)
    else:
        raw, steps = _integrate_rk4(rhs, y0, out_times, rk4_steps)

    snapshots = tuple(GridFunction(grid, y) for y in raw)
    moments = np.array(
        [[quad_moment(s, n) for n in (0, 1, 2)] for s in snapshots]
    )
    min_values = np.array([float(np.min(s.values)) for s in snapshots])
    return FvmSolution(
        case=case,
        grid=grid,
        times=out_times.copy(),
        snapshots=snapshots,
        moments=moments,
        min_values=min_values,
        step_count=steps,
        rhs_evaluations=evaluations,
    )
