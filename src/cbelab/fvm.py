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

from .cases import CaseSpec
from .collision import CollisionOperator, birth_map
from .errors import DivergenceError, DomainError, StiffnessError
from .grid import Grid, GridFunction, project_initial

__all__ = ["FvmSolution", "precompute_weights", "integrate"]


def precompute_weights(grid: Grid, breakage):
    """Cell-rule birth map (a ``collision.FragWeights``) for one breakage law on
    one grid; applying it costs O(N)."""
    return birth_map(grid, breakage)


# adaptive Dormand–Prince 5(4) tolerances
_ATOL = 1e-8
_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class FvmSolution:
    """Time-stamped concentration snapshots plus stepper work counts."""

    case: CaseSpec
    grid: Grid
    times: np.ndarray
    snapshots: tuple[GridFunction, ...]
    step_count: int
    rhs_evaluations: int


def _check_state(t: float, y: np.ndarray) -> None:
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"non-finite state at t={t:.6g}")


# Dormand & Prince (J. Comput. Appl. Math. 6, 1980): stage rows of A, nodes C,
# fifth-order weights B and the embedded error weights E (last entry: the FSAL
# stage); P is Shampine's quartic dense output (Math. Comp. 46, 1986).
_A = [
    np.array(row)
    for row in (
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    )
]
_C = (0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1)
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


def _rms(x: np.ndarray) -> float:
    # a numpy sum, not a BLAS dot, so the norm does not depend on the thread count
    return np.sqrt(np.sum(x * x)) / x.size**0.5


def _check_scales(*scales: float) -> None:
    # a NaN probe is left to the step loop, which shrinks the step to the floor
    if any(math.isinf(d) for d in scales):
        raise DivergenceError("non-finite derivative scale in the initial step")


def _initial_step(rhs, y0, f0, t_end: float) -> float:
    """Hairer, Norsett & Wanner, Solving ODEs I, section II.4, clamped to ``t_end``."""
    scale = _ATOL + np.abs(y0) * _RTOL
    # an overflowing scale would collapse the step to zero instead
    with np.errstate(over="ignore"):
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        _check_scales(d0, d1)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_end)
        d2 = _rms((rhs(h0, y0 + h0 * f0) - f0) / scale) / h0
        _check_scales(d2)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _integrate_dopri54(rhs, y0, out_times):
    """Adaptive Dormand–Prince 5(4) from 0 to ``out_times[-1]``; snapshots from
    the dense output.  Local extrapolation, RMS error norm, safety factor 0.9
    and factor clamps [0.2, 10] (at most 1 right after a rejection)."""
    t_end = float(out_times[-1])
    t, y = 0.0, y0
    f = rhs(t, y)
    if not np.all(np.isfinite(f)):
        raise DivergenceError("non-finite right-hand side at t=0")
    h_abs = _initial_step(rhs, y, f, t_end)
    if not math.isfinite(h_abs):
        raise DivergenceError(f"non-finite initial step {h_abs}")
    K = np.empty((len(_E), y.size))
    snapshots = [y0.copy()]
    next_idx = 1
    steps = 0
    while next_idx < len(out_times):
        # ten ulps of t: a shorter step no longer moves t by a reliable amount
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    f"adaptive step failed: step {h_abs:.3e} below the spacing at t={t:.6g}"
                )
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, len(_C)):
                K[s] = rhs(t + _C[s] * h, y + np.dot(K[:s].T, _A[s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = rhs(t + h, y_new)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        steps += 1
        _check_state(t_new, y_new)
        Q = None
        while next_idx < len(out_times) and out_times[next_idx] <= t_new + 1e-14:
            if Q is None:
                Q = K.T.dot(_P)
            x = (out_times[next_idx] - t) / h
            snapshots.append(h * np.dot(Q, np.cumprod(np.full(4, x))) + y)
            next_idx += 1
        t, y, f = t_new, y_new, f_new
    return snapshots, steps


def integrate(case: CaseSpec, grid: Grid, times) -> FvmSolution:
    """Advance the projected initial condition through the requested output times.

    ``times`` must be ascending, start at 0 and stay within the case horizon.
    The snapshot at time 0 is the projected initial condition itself.  The
    stepper is the adaptive embedded Dormand–Prince 5(4) pair; it raises
    ``StiffnessError`` when the step falls below ten ulps of t.
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
    y0 = project_initial(case.init, grid).values.copy()

    evaluations = 0

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return operator.rhs(y)

    if out_times.size == 1:
        raw, steps = [y0.copy()], 0
    else:
        raw, steps = _integrate_dopri54(rhs, y0, out_times)

    return FvmSolution(
        case=case,
        grid=grid,
        times=out_times.copy(),
        snapshots=tuple(GridFunction(grid, y) for y in raw),
        step_count=steps,
        rhs_evaluations=evaluations,
    )
