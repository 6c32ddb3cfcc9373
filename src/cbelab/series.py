"""Homotopy-series solvers: series terms as time polynomials with grid-function
coefficients, the control-parameter optimiser, and hard-coded closed-form
reference terms for the shipped benchmark cases.

Time dependence is handled exactly through polynomial arithmetic; only the
size integrals are approximated by midpoint quadrature on the grid.  In the
parent-size integral the cell containing the evaluation point contributes half
its width: the integral starts at the midpoint, mirroring the finite-volume
convention for same-cell contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .cases import CaseSpec, MassUniformBreakage, registry_case
from .collision import CollisionOperator, birth_map, cauchy_product
from .errors import (
    DomainError,
    GridMismatchError,
    NoExactReferenceError,
    NoOracleError,
    NumericalError,
)
from .grid import Grid, GridFunction, project_initial

__all__ = [
    "TimePoly",
    "SeriesSolution",
    "CollocationSpec",
    "AlphaResult",
    "poly_mul",
    "poly_antiderivative",
    "death_apply",
    "birth_apply",
    "ham_terms",
    "ahpm_terms",
    "truncated_sum",
    "residual",
    "default_collocation",
    "averaged_residual",
    "optimize_alpha",
    "oracle_terms",
    "oracle_table",
    "taylor_term",
]

# --------------------------------------------------------------------------
# time polynomials
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimePoly:
    """Polynomial in time whose coefficients are per-cell values.

    ``coeffs[k]`` multiplies ``t**k``; trailing rows that are exactly zero are
    trimmed at construction.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if coeffs.shape[1] != self.grid.cells:
            raise DomainError(
                f"coefficient rows must have {self.grid.cells} entries"
            )
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("polynomial coefficients must be finite")
        last = coeffs.shape[0]
        while last > 1 and not coeffs[last - 1].any():
            last -= 1
        coeffs = coeffs[:last].copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, k: int) -> GridFunction:
        if not 0 <= k <= self.degree:
            raise DomainError(f"no coefficient of order {k}")
        return GridFunction(self.grid, self.coeffs[k])

    def eval(self, t: float) -> GridFunction:
        return GridFunction(self.grid, _poly_eval(self.coeffs, t))


def _poly_eval(coeffs: np.ndarray, t: float) -> np.ndarray:
    out = np.zeros(coeffs.shape[1])
    for row in coeffs[::-1]:
        out = out * t + row
    return out


def _poly_pad(p: np.ndarray, rows: int) -> np.ndarray:
    if p.shape[0] >= rows:
        return p
    return np.vstack([p, np.zeros((rows - p.shape[0], p.shape[1]))])


def _poly_add(p: np.ndarray, q: np.ndarray, scale: float = 1.0) -> np.ndarray:
    rows = max(p.shape[0], q.shape[0])
    return _poly_pad(p, rows) + scale * _poly_pad(q, rows)


def _poly_antider(p: np.ndarray) -> np.ndarray:
    factors = 1.0 / np.arange(1, p.shape[0] + 1)
    return np.vstack([np.zeros((1, p.shape[1])), p * factors[:, None]])


def poly_mul(p: TimePoly, q: TimePoly) -> TimePoly:
    """Cauchy product in time, pointwise per cell."""
    if p.grid is not q.grid:
        raise GridMismatchError("polynomials live on different grids")
    return TimePoly(p.grid, cauchy_product(p.coeffs, q.coeffs))


def _checked(coeffs: np.ndarray, what: str) -> np.ndarray:
    """Computed coefficients, which must be finite (a numerical failure, not bad input)."""
    if not np.all(np.isfinite(coeffs)):
        raise NumericalError(f"{what} has non-finite coefficients")
    return coeffs


def poly_antiderivative(p: TimePoly) -> TimePoly:
    """Time antiderivative vanishing at t = 0."""
    return TimePoly(p.grid, _poly_antider(p.coeffs))


# --------------------------------------------------------------------------
# collision operators on grid functions
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _collision_ops(grid: Grid, kernel, breakage) -> CollisionOperator:
    return CollisionOperator(birth_map(grid, breakage, interpolated=True), kernel)


def death_apply(kernel, g: GridFunction, h: GridFunction) -> GridFunction:
    """Loss integral ``g_i * sum_l K(mid_i, mid_l) h_l width_l``."""
    if g.grid is not h.grid:
        raise GridMismatchError("grid functions live on different grids")
    ops = _collision_ops(g.grid, kernel, MassUniformBreakage())
    return GridFunction(g.grid, ops.death(g.values, h.values))


def birth_apply(kernel, breakage, g: GridFunction, h: GridFunction) -> GridFunction:
    """Gain integral over parents carrying ``g`` against the partner field ``h``."""
    if g.grid is not h.grid:
        raise GridMismatchError("grid functions live on different grids")
    ops = _collision_ops(g.grid, kernel, breakage)
    return GridFunction(g.grid, ops.birth(g.values, h.values))


# --------------------------------------------------------------------------
# series construction
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Ordered series terms plus the method tag that produced them."""

    method: str
    case: CaseSpec
    grid: Grid
    terms: tuple[TimePoly, ...]
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.method not in ("ham", "ahpm"):
            raise DomainError(f"unknown series method {self.method!r}")
        if self.method == "ham" and self.alpha is None:
            raise DomainError("ham series carry their control parameter")
        if not self.terms:
            raise DomainError("a series needs at least the zeroth term")

    @property
    def order(self) -> int:
        return len(self.terms) - 1


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (-1.0 <= alpha < 0.0):
        raise DomainError(f"control parameter must lie in [-1, 0), got {alpha}")
    return alpha


def _ham_coeffs(
    ops: CollisionOperator, f0: np.ndarray, order: int, alpha: float
) -> list[np.ndarray]:
    """Time coefficients of HAM terms ``0 .. order`` (see ``ham_terms``)."""
    terms = [np.atleast_2d(f0)]
    for m in range(1, order + 1):
        conv = np.zeros((1, f0.size))
        for k in range(m):
            conv = _poly_add(conv, ops.collide(terms[k], terms[m - 1 - k]), -1.0)
        fm = alpha * _poly_antider(conv)
        if m > 1:
            fm = _poly_add(fm, terms[m - 1], scale=1.0 + alpha)
        terms.append(_checked(fm, f"ham term {m}"))
    return terms


def ham_terms(case: CaseSpec, grid: Grid, order: int, alpha: float) -> SeriesSolution:
    """Homotopy-analysis series terms up to the requested order.

    The first correction applies the collision operator to the initial guess;
    each later term recycles the previous one with weight ``1 + alpha`` and
    adds the control-parameter-scaled antiderivative of the order-matched
    collision convolution.  Term ``m`` has polynomial degree exactly ``m``.
    """
    alpha = _check_alpha(alpha)
    if order < 0:
        raise DomainError("order must be non-negative")
    ops = _collision_ops(grid, case.kernel, case.breakage)
    f0 = project_initial(case.init, grid).values
    terms = _ham_coeffs(ops, f0, order, alpha)
    return SeriesSolution(
        method="ham",
        case=case,
        grid=grid,
        terms=tuple(TimePoly(grid, t) for t in terms),
        alpha=alpha,
    )


def ahpm_terms(case: CaseSpec, grid: Grid, order: int) -> SeriesSolution:
    """Accelerated-homotopy series terms up to the requested order.

    Term ``n`` is the negated defect of the partial sum of the earlier terms (a
    Picard step): the collision operator acts on the full partial sum, so
    products of partial sums generate time powers above ``n``, which are
    retained as computed.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    ops = _collision_ops(grid, case.kernel, case.breakage)
    f0 = project_initial(case.init, grid).values
    terms = [TimePoly(grid, f0)]
    partial = terms[0].coeffs
    for n in range(1, order + 1):
        terms.append(TimePoly(grid, -_checked(_defect(ops, f0, partial), f"ahpm term {n}")))
        partial = _poly_add(partial, terms[-1].coeffs)
    return SeriesSolution(method="ahpm", case=case, grid=grid, terms=tuple(terms))


def truncated_sum(series: SeriesSolution, m: int, t: float) -> GridFunction:
    """Partial sum of the first ``m + 1`` terms evaluated at time ``t``."""
    if not 0 <= m <= series.order:
        raise DomainError(f"order {m} exceeds the series order {series.order}")
    acc = np.zeros(series.grid.cells)
    for term in series.terms[: m + 1]:
        acc += _poly_eval(term.coeffs, t)
    return GridFunction(series.grid, acc)


def _stack_terms(terms: Sequence[TimePoly]) -> np.ndarray:
    rows = max(term.coeffs.shape[0] for term in terms)
    acc = np.zeros((rows, terms[0].coeffs.shape[1]))
    for term in terms:
        acc = _poly_add(acc, term.coeffs)
    return acc


def _defect(ops: CollisionOperator, f0: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Time coefficients of ``theta - f0 - int_0^t C(theta, theta)``."""
    defect = _poly_add(theta, _poly_antider(ops.collide(theta, theta)), scale=-1.0)
    defect[0] -= f0
    return defect


def residual(case: CaseSpec, terms: Sequence[TimePoly]) -> TimePoly:
    """Defect of the summed ``terms`` in the integrated collision equation.

    A polynomial in time, zero at ``t = 0`` by construction; for an exact
    solution it reduces to the quadrature and truncation error of the grid
    operators.
    """
    if not terms:
        raise DomainError("a residual needs at least the zeroth term")
    grid = terms[0].grid
    if any(term.grid is not grid for term in terms):
        raise GridMismatchError("series terms live on different grids")
    ops = _collision_ops(grid, case.kernel, case.breakage)
    f0 = project_initial(case.init, grid).values
    return TimePoly(grid, _checked(_defect(ops, f0, _stack_terms(terms)), "series residual"))


# --------------------------------------------------------------------------
# control-parameter optimisation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CollocationSpec:
    """Sample nodes for the averaged squared residual."""

    times: tuple[float, ...]
    sizes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times or not self.sizes:
            raise DomainError("collocation needs at least one node per axis")
        if min(self.times) <= 0 or min(self.sizes) <= 0:
            raise DomainError("collocation nodes must be strictly positive")


def default_collocation(case: CaseSpec, order: int) -> CollocationSpec:
    """Uniform time nodes up to the horizon, log-spaced size nodes up to R."""
    if order < 1:
        raise DomainError("collocation order must be >= 1")
    times = tuple((m * case.tend) / order for m in range(1, order + 1))
    sizes = tuple(
        np.logspace(math.log10(case.rmax * 1e-3), math.log10(case.rmax), order)
    )
    return CollocationSpec(times=times, sizes=sizes)


def averaged_residual(
    case: CaseSpec,
    grid: Grid,
    order: int,
    alpha: float,
    colloc: CollocationSpec | None = None,
) -> float:
    """Mean squared residual of the order-``order`` series over the collocation nodes."""
    colloc = colloc or default_collocation(case, order)
    if max(colloc.times) > case.tend + 1e-12:
        raise DomainError("collocation times exceed the case horizon")
    if max(colloc.sizes) > case.rmax + 1e-12:
        raise DomainError("collocation sizes exceed the truncation radius")
    defect = residual(case, ham_terms(case, grid, order, alpha).terms)
    samples = _sample(defect.coeffs, grid, colloc)
    return sum(float(np.sum(row**2)) for row in samples) / samples.size


def _sample(coeffs: np.ndarray, grid: Grid, colloc: CollocationSpec) -> np.ndarray:
    """Time polynomial at the collocation nodes: one row per time, one column per size."""
    return np.array(
        [np.interp(colloc.sizes, grid.midpoints, _poly_eval(coeffs, tm)) for tm in colloc.times]
    )


def _ham_weights(order: int, alpha: np.ndarray) -> np.ndarray:
    """Weights ``w_j(alpha)``, ``j = 0 .. order``, of the HAM partial sum
    ``sum_j w_j(alpha) g_j`` in the alpha = -1 (plain HPM) terms ``g_j``.

    HAM term ``m`` is ``sum_j (-alpha)^j C(m-1, j-1) (1+alpha)^(m-j) g_j``.
    """
    rows = [np.ones_like(alpha)]
    for j in range(1, order + 1):
        tail = sum(math.comb(k - 1, j - 1) * (1 + alpha) ** (k - j) for k in range(j, order + 1))
        rows.append((-alpha) ** j * tail)
    return np.array(rows)


def _alpha_objective(
    case: CaseSpec, grid: Grid, order: int, colloc: CollocationSpec
) -> Callable[[np.ndarray], np.ndarray]:
    """``averaged_residual`` as an explicit polynomial in alpha, for a 1-D array of alphas.

    With the partial sum ``sum_j w_j g_j`` (``w_0 = 1``, ``g_0 = f0``) and a
    bilinear ``collide``, the defect at the nodes is
    ``sum_{j>=1} w_j A_j - sum_{i,j} w_i w_j B_ij``, where ``A_j`` samples
    ``g_j`` and ``B_ij`` samples ``int_0^t C(g_i, g_j)``: one alpha-free build
    and ``(order + 1)**2`` products fix every value.
    """
    ops = _collision_ops(grid, case.kernel, case.breakage)
    hpm = _ham_coeffs(ops, project_initial(case.init, grid).values, order, -1.0)
    linear = np.array([_sample(g, grid, colloc).ravel() for g in hpm[1:]])
    quadratic = np.array(
        [[_sample(_poly_antider(ops.collide(p, q)), grid, colloc).ravel() for q in hpm] for p in hpm]
    )

    def objective(alpha: np.ndarray) -> np.ndarray:
        w = _ham_weights(order, np.asarray(alpha, dtype=float))
        defect = w[1:].T @ linear - np.einsum("ia,ja,ijn->an", w, w, quadratic)
        return np.mean(defect**2, axis=-1)

    return objective


@dataclass(frozen=True)
class AlphaResult:
    alpha: float
    averaged_residual: float


def optimize_alpha(
    case: CaseSpec,
    grid: Grid,
    order: int,
    lo: float = -1.0,
    hi: float = -0.01,
) -> AlphaResult:
    """Global minimum of the averaged squared residual over ``[lo, hi]``.

    Every HAM partial sum is ``sum_j w_j(alpha) g_j`` over the alpha = -1
    (plain HPM) terms ``g_j``, with scalar weights of degree ``<= order`` in
    alpha, so one alpha-free build fixes the objective at every alpha: an
    explicit polynomial of degree ``4 * order`` (``_alpha_objective``).  Its
    Chebyshev interpolant at ``4 * order + 1`` nodes has its minimum at an
    endpoint or at a real root of its derivative.  Only these candidates are
    evaluated through ``averaged_residual`` (one HAM build each), and the
    smallest true value is returned.
    """
    if order < 1:
        raise DomainError("optimisation needs a series order >= 1")
    if not (-1.0 <= lo < hi < 0.0):
        raise DomainError(f"search interval [{lo}, {hi}] must sit inside [-1, 0)")
    colloc = default_collocation(case, order)

    def objective(a: float) -> float:
        value = averaged_residual(case, grid, order, a, colloc)
        if not math.isfinite(value):
            raise NumericalError(f"averaged residual is not finite at alpha={a:.6f}")
        return value

    fit = np.polynomial.Chebyshev.interpolate(
        _alpha_objective(case, grid, order, colloc), 4 * order, domain=(lo, hi)
    )
    _checked(fit.coef, "averaged residual polynomial")
    roots = fit.deriv().roots()
    # the eigenvalue solver may leave a round-off imaginary part on a real root
    real = roots.real[np.abs(roots.imag) <= 1e-9]
    candidates = (lo, hi, *real[(lo < real) & (real < hi)])
    values = {float(a): objective(float(a)) for a in candidates}
    best = min(values, key=values.get)
    return AlphaResult(alpha=best, averaged_residual=values[best])


# --------------------------------------------------------------------------
# closed-form reference terms
# --------------------------------------------------------------------------

def _coeff_rows(
    grid: Grid, rows: dict[int, Callable[[np.ndarray], np.ndarray]]
) -> np.ndarray:
    x = grid.midpoints
    out = np.zeros((max(rows) + 1, grid.cells))
    for power, fn in rows.items():
        out[power] = fn(x)
    return out


def _oracle_builders(alpha: float | None):
    a = alpha

    def ex1_ham(m: int, grid: Grid) -> np.ndarray:
        e = lambda x: np.exp(-x)
        rows = {
            0: {0: lambda x: e(x)},
            1: {1: lambda x: a * (x - 2) * e(x)},
            2: {
                1: lambda x: a * (a + 1) * (x - 2) * e(x),
                2: lambda x: 0.5 * a**2 * (x**2 - 4 * x + 2) * e(x),
            },
            3: {
                1: lambda x: a * (a + 1) ** 2 * (x - 2) * e(x),
                2: lambda x: a**2 * (a + 1) * (x**2 - 4 * x + 2) * e(x),
                3: lambda x: (a**3 / 6.0) * (x**3 - 6 * x**2 + 6 * x) * e(x),
            },
        }
        return _coeff_rows(grid, rows[m])

    def ex1_ahpm(m: int, grid: Grid) -> np.ndarray:
        e = lambda x: np.exp(-x)
        rows = {
            0: {0: lambda x: e(x)},
            1: {1: lambda x: (2 - x) * e(x)},
            2: {2: lambda x: 0.5 * (x**2 - 4 * x + 2) * e(x)},
            3: {3: lambda x: (-(x**3) / 6 + x**2 - x) * e(x)},
            4: {4: lambda x: (x**4 / 24 - x**3 / 3 + x**2 / 2) * e(x)},
            5: {5: lambda x: -(x**3) * (x**2 - 10 * x + 20) * e(x) / 120.0},
        }
        return _coeff_rows(grid, rows[m])

    def ex2_ham(m: int, grid: Grid) -> np.ndarray:
        e = lambda x: np.exp(-x)
        q1 = lambda x: (x**2 - 2 * x - 2) * e(x)
        q2 = lambda x: (x**3 - 4 * x**2 - 2 * x + 4) * e(x)
        q3 = lambda x: (x**4 - 6 * x**3 + 12 * x) * e(x)
        rows = {
            0: {0: lambda x: x * e(x)},
            1: {1: lambda x: (a / 10.0) * q1(x)},
            2: {
                1: lambda x: (a * (a + 1) / 10.0) * q1(x),
                2: lambda x: (a**2 / 200.0) * q2(x),
            },
            3: {
                1: lambda x: (a * (a + 1) ** 2 / 10.0) * q1(x),
                2: lambda x: (a**2 * (a + 1) / 100.0) * q2(x),
                3: lambda x: (a**3 / 6000.0) * q3(x),
            },
        }
        return _coeff_rows(grid, rows[m])

    def ex2_ahpm(m: int, grid: Grid) -> np.ndarray:
        e = lambda x: np.exp(-x)
        rows = {
            0: {0: lambda x: x * e(x)},
            1: {1: lambda x: (2 + 2 * x - x**2) * e(x) / 10.0},
            2: {2: lambda x: (x**3 - 4 * x**2 - 2 * x + 4) * e(x) / 200.0},
            3: {
                3: lambda x: (-(x**4) / 6000 + x**3 / 1000 - x / 500) * e(x)
            },
            4: {
                4: lambda x: (
                    x**5 / 240000 - x**4 / 30000 + x**3 / 60000 + x**2 / 10000
                )
                * e(x)
            },
        }
        return _coeff_rows(grid, rows[m])

    def ex3_ahpm(m: int, grid: Grid) -> np.ndarray:
        # exact fragment ratios 2/5 and 3/5 give inverse scales 5/2 and 5/3
        rows = {
            0: {0: lambda x: np.exp(-x)},
            1: {
                1: lambda x: (5.0 / 3.0) * np.exp(-(5.0 / 3.0) * x)
                + 2.5 * np.exp(-2.5 * x)
                - np.exp(-x)
            },
        }
        return _coeff_rows(grid, rows[m])

    return {
        ("ex1", "ham"): (ex1_ham, 3),
        ("ex1", "ahpm"): (ex1_ahpm, 5),
        ("ex2", "ham"): (ex2_ham, 3),
        ("ex2", "ahpm"): (ex2_ahpm, 4),
        ("ex3", "ahpm"): (ex3_ahpm, 1),
    }


def oracle_table() -> tuple[tuple[str, str, int], ...]:
    """All shipped (case, method, order) closed-form reference entries."""
    builders = _oracle_builders(alpha=-1.0)
    entries = []
    for (case_id, method), (_, max_m) in sorted(builders.items()):
        entries.extend((case_id, method, m) for m in range(max_m + 1))
    return tuple(entries)


def oracle_terms(
    case_id: str, method: str, m: int, grid: Grid, alpha: float | None = None
) -> TimePoly:
    """Closed-form series term evaluated at the grid midpoints.

    The published listings are parametric in the control parameter, so the
    ``ham`` entries require ``alpha``.
    """
    registry_case(case_id)  # validate the id
    if method == "ham":
        if alpha is None:
            raise DomainError("ham oracle terms require the control parameter")
        alpha = _check_alpha(alpha)
    builders = _oracle_builders(alpha)
    entry = builders.get((case_id, method))
    if entry is None:
        raise NoOracleError(f"no oracle terms for ({case_id}, {method})")
    builder, max_m = entry
    if not 0 <= m <= max_m:
        raise NoOracleError(
            f"no oracle term of order {m} for ({case_id}, {method}); have 0..{max_m}"
        )
    return TimePoly(grid, builder(m, grid))


def taylor_term(case_id: str, m: int, grid: Grid) -> TimePoly:
    """``m``-th time-Taylor term of the ex1 closed-form solution.

    Only ex1 has a closed-form concentration; its Taylor coefficients in time
    are polynomials times the initial exponential.
    """
    if case_id != "ex1":
        raise NoExactReferenceError(f"case {case_id!r} has no closed-form expansion")
    if m < 0:
        raise DomainError("term order must be non-negative")
    x = grid.midpoints
    decay = np.exp(-x)
    if m == 0:
        values = decay
    elif m == 1:
        values = (2.0 - x) * decay
    else:
        sign = -1.0 if m % 2 else 1.0
        values = (
            sign
            / math.factorial(m)
            * x ** (m - 2)
            * (x**2 - 2 * m * x + m * (m - 1))
            * decay
        )
    coeffs = np.zeros((m + 1, grid.cells))
    coeffs[m] = values
    return TimePoly(grid, coeffs)
