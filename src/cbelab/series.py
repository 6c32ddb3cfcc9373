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

from .cases import CaseSpec, registry_case
from .collision import CollisionOperator, birth_map
from .errors import (
    DomainError,
    GridMismatchError,
    NoExactReferenceError,
    NoOracleError,
    NumericalError,
)
from .grid import Grid, GridFunction, _interp_rows, project_initial

__all__ = [
    "TimePoly",
    "SeriesSolution",
    "AlphaResult",
    "ham_terms",
    "ahpm_terms",
    "truncated_sum",
    "residual",
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
        return GridFunction(self.grid, _checked(_poly_eval(self.coeffs, t), f"polynomial at t={t:g}"))


def _poly_eval(coeffs: np.ndarray, t) -> np.ndarray:
    """Horner values at a time (shape ``(cells,)``) or a 1-D array of times (``(times, cells)``)."""
    times = np.asarray(t, dtype=float)
    out = np.zeros(times.shape + coeffs.shape[1:])
    for row in coeffs[::-1]:
        out *= times[..., None]
        out += row
    return out


def _poly_sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of time-coefficient arrays of any row counts, added in list order into a new array."""
    out = np.zeros((max(a.shape[0] for a in arrays),) + arrays[0].shape[1:])
    for a in arrays:
        out[: a.shape[0]] += a
    return out


def _poly_antider(p: np.ndarray) -> np.ndarray:
    factors = 1.0 / np.arange(1, p.shape[0] + 1)
    return np.vstack([np.zeros((1,) + p.shape[1:]), p * factors.reshape((-1,) + (1,) * (p.ndim - 1))])


def _checked(values: np.ndarray, what: str) -> np.ndarray:
    """Computed coefficients or values, which must be finite (a numerical failure, not bad input)."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} has non-finite values")
    return values


# --------------------------------------------------------------------------
# series construction
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _collision_ops(grid: Grid, kernel, breakage) -> CollisionOperator:
    return CollisionOperator(birth_map(grid, breakage, interpolated=True), kernel)


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


@lru_cache(maxsize=1)
def _hpm_build(grid: Grid, kernel, breakage, init, order: int) -> tuple[np.ndarray, tuple, tuple]:
    """The alpha = -1 (plain HPM) terms ``g_j = c_j t**j``: the Taylor rows ``c_0 .. c_order``
    stacked, each with its parent pass and partner rates, so each birth pass is taken
    once.  The one entry kept serves an alpha search and the series it picks."""
    ops = _collision_ops(grid, kernel, breakage)
    rows, passes, rates = np.zeros((order + 1, grid.cells)), [], []
    rows[0] = project_initial(init, grid).values
    for m in range(order + 1):
        passes.append(ops.parent_pass(rows[m : m + 1]))
        rates.append(ops.partner_rates(rows[m : m + 1]))
        if m < order:  # g_{m+1} = int_0^t sum_k C(g_k, g_{m-k}), one row of power m + 1
            conv = sum(ops.product(passes[k], rates[m - k]) for k in range(m + 1))
            rows[m + 1] = _checked(conv * (1.0 / (m + 1)), f"ham term {m + 1}")
    return rows, tuple(passes), tuple(rates)


def _ham_mixing(order: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """HAM term ``m`` is ``sum_j binomial[m, j] power[j] g_j``: ``binomial[m, j] =
    C(m-1, j-1) (1+alpha)^(m-j)``, ``binomial[0, 0] = 1``, ``power[j] = (-alpha)^j``.
    An array of alphas adds its axes to both."""
    alpha = np.asarray(alpha, dtype=float)
    binomial = np.zeros((order + 1, order + 1) + alpha.shape)
    binomial[0, 0] = 1.0
    for m in range(1, order + 1):
        for j in range(1, m + 1):
            binomial[m, j] = math.comb(m - 1, j - 1) * (1 + alpha) ** (m - j)
    return binomial, np.array([(-alpha) ** j for j in range(order + 1)])


def ham_terms(case: CaseSpec, grid: Grid, order: int, alpha: float) -> SeriesSolution:
    """Homotopy-analysis series terms up to the requested order.

    The first correction applies the collision operator to the initial guess;
    each later term recycles the previous one with weight ``1 + alpha`` and
    adds the control-parameter-scaled antiderivative of the order-matched
    collision convolution, so every term mixes the cached alpha = -1 terms
    (``_ham_mixing``).  Term ``m`` has polynomial degree exactly ``m``.
    """
    alpha = _check_alpha(alpha)
    if order < 0:
        raise DomainError("order must be non-negative")
    rows = _hpm_build(grid, case.kernel, case.breakage, case.init, order)[0]
    binomial, power = _ham_mixing(order, alpha)
    terms = tuple(
        TimePoly(grid, _checked(mix[: m + 1, None] * rows[: m + 1], f"ham term {m}"))
        for m, mix in enumerate(binomial * power)
    )
    return SeriesSolution(method="ham", case=case, grid=grid, terms=terms, alpha=alpha)


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
    for n in range(1, order + 1):
        terms.append(TimePoly(grid, -_checked(_defect(ops, f0, terms), f"ahpm term {n}")))
    return SeriesSolution(method="ahpm", case=case, grid=grid, terms=tuple(terms))


def truncated_sum(series: SeriesSolution, m: int, t) -> GridFunction | tuple[GridFunction, ...]:
    """Partial sum of the first ``m + 1`` terms at time ``t``, or a tuple of them at each of a
    sequence of times, summed in one Horner pass and bit-identical to one call per time."""
    if not 0 <= m <= series.order:
        raise DomainError(f"order {m} exceeds the series order {series.order}")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise DomainError(f"need a time or a non-empty 1-D sequence of times, got shape {times.shape}")
    acc = sum(_poly_eval(term.coeffs, times) for term in series.terms[: m + 1])
    sums = tuple(
        GridFunction(series.grid, _checked(row, f"order-{m} {series.method} sum at t={tm:g}"))
        for tm, row in zip(np.atleast_1d(times), np.atleast_2d(acc))
    )
    return sums[0] if times.ndim == 0 else sums


def _defect(ops: CollisionOperator, f0: np.ndarray, terms: Sequence[TimePoly]) -> np.ndarray:
    """Time coefficients of ``theta - f0 - int_0^t C(theta, theta)``, ``theta`` the sum of ``terms``."""
    theta = _poly_sum([term.coeffs for term in terms])
    defect = _poly_sum([theta, -_poly_antider(ops.collide(theta, theta))])
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
    return TimePoly(grid, _checked(_defect(ops, f0, terms), "series residual"))


# --------------------------------------------------------------------------
# control-parameter optimisation
# --------------------------------------------------------------------------

def _collocation(case: CaseSpec, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample nodes of the averaged squared residual: ``order`` uniform times up
    to the horizon and ``order`` log-spaced sizes from ``R / 1000`` up to ``R``."""
    if order < 1:
        raise DomainError("collocation order must be >= 1")
    times = np.array([(m * case.tend) / order for m in range(1, order + 1)])
    sizes = np.logspace(math.log10(case.rmax * 1e-3), math.log10(case.rmax), order)
    return times, sizes


def averaged_residual(case: CaseSpec, grid: Grid, order: int, alpha: float) -> float:
    """Mean squared residual of the order-``order`` series over the collocation nodes."""
    nodes = _collocation(case, order)
    defect = residual(case, ham_terms(case, grid, order, alpha).terms)
    cells = _read_cells(grid, nodes[1])
    samples = _at_nodes(defect.coeffs[:, cells], grid.midpoints[cells], nodes)
    return sum(float(np.sum(row**2)) for row in samples) / samples.size


def _read_cells(grid: Grid, sizes: np.ndarray) -> np.ndarray:
    """The sorted cells whose values ``np.interp(sizes, grid.midpoints, ...)`` reads: each
    size's bracketing pair and the two end cells, which give its values outside the
    midpoints.  Interpolating on these cells alone returns the same doubles."""
    last = grid.cells - 1
    right = np.searchsorted(grid.midpoints, sizes, side="right")
    read = np.zeros(grid.cells, dtype=bool)
    read[[0, last]] = True
    read[np.clip(right - 1, 0, last)] = True
    read[np.clip(right, 0, last)] = True
    return np.flatnonzero(read)


def _at_nodes(coeffs: np.ndarray, xp: np.ndarray, nodes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Time polynomials ``(rows, ..., cells)`` with cell midpoints ``xp`` at the collocation
    nodes, ``(times, ..., sizes)``: one Horner pass, then one ``np.interp`` per row."""
    times, sizes = nodes
    values = _poly_eval(coeffs.reshape(coeffs.shape[0], -1), times)
    return _interp_rows(sizes, xp, values.reshape((times.size,) + coeffs.shape[1:]))


def _alpha_table(case: CaseSpec, grid: Grid, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``A_j`` (``j >= 1``) and ``B_ij`` of ``_alpha_objective`` on the cells ``np.interp`` reads:
    the monomials ``c_j t**j`` and ``(pass_i rates_j) t**(i+j+1) / (i+j+1)``, each in its row of a
    zero array, so Horner's rule gives ``v t ... t``, the doubles of zero-padded terms."""
    nodes = _collocation(case, order)
    cells = _read_cells(grid, nodes[1])
    xp = grid.midpoints[cells]
    rows, passes, rates = _hpm_build(grid, case.kernel, case.breakage, case.init, order)
    n = order + 1
    # axes (time row, i, j, cell): one product of every parent pass with every partner's rates
    parents = tuple(np.stack(rank, axis=1)[:, :, None, cells] for rank in zip(*passes))
    partners = tuple(np.stack(rank, axis=1)[:, None] for rank in zip(*rates))
    i, j = np.indices((n, n))
    quadratic, linear = np.zeros((2 * n, n, n, cells.size)), np.zeros((n, order, cells.size))
    product = CollisionOperator.product(parents, partners)[0]
    quadratic[i + j + 1, i, j] = product * (1.0 / (i + j + 1))[..., None]
    linear[np.arange(1, n), np.arange(order)] = rows[1:, cells]
    linear = _at_nodes(linear, xp, nodes).transpose(1, 0, 2)
    quadratic = _at_nodes(quadratic, xp, nodes).transpose(1, 2, 0, 3)
    return linear.reshape(order, -1), quadratic.reshape(n, n, -1)


def _alpha_objective(case: CaseSpec, grid: Grid, order: int) -> Callable[[np.ndarray], np.ndarray]:
    """``averaged_residual`` as an explicit polynomial in alpha, for a 1-D array of alphas.

    With the partial sum ``sum_j w_j g_j`` (``w_0 = 1``, ``g_0 = f0``) and a
    bilinear ``collide``, the defect at the nodes is
    ``sum_{j>=1} w_j A_j - sum_{i,j} w_i w_j B_ij``, where ``A_j`` samples
    ``g_j`` and ``B_ij`` samples ``int_0^t C(g_i, g_j)``: the cached
    alpha-free build and ``(order + 1)**2`` products fix every value.
    """
    linear, quadratic = _alpha_table(case, grid, order)

    def objective(alpha: np.ndarray) -> np.ndarray:
        binomial, power = _ham_mixing(order, alpha)
        w = power * sum(binomial)  # the weights of the partial sum: column sums
        defect = w[1:].T @ linear - np.einsum("ia,ja,ijn->an", w, w, quadratic)
        return np.mean(defect**2, axis=-1)

    return objective


@dataclass(frozen=True)
class AlphaResult:
    alpha: float
    averaged_residual: float


def optimize_alpha(case: CaseSpec, grid: Grid, order: int) -> AlphaResult:
    """Global minimum of the averaged squared residual over ``[-1, -0.01]``.

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
    lo, hi = -1.0, -0.01

    def objective(a: float) -> float:
        value = averaged_residual(case, grid, order, a)
        if not math.isfinite(value):
            raise NumericalError(f"averaged residual is not finite at alpha={a:.6f}")
        return value

    fit = np.polynomial.Chebyshev.interpolate(
        _alpha_objective(case, grid, order), 4 * order, domain=(lo, hi)
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

def _e(x: np.ndarray) -> np.ndarray:
    return np.exp(-x)


def _q1(x: np.ndarray) -> np.ndarray:
    return (x**2 - 2 * x - 2) * _e(x)


def _q2(x: np.ndarray) -> np.ndarray:
    return (x**3 - 4 * x**2 - 2 * x + 4) * _e(x)


def _q3(x: np.ndarray) -> np.ndarray:
    return (x**4 - 6 * x**3 + 12 * x) * _e(x)


# (case, method): terms 0, 1, ..., each ``{power of t: coefficient(x, a)}`` at the
# sizes ``x``; the ham listings take the control parameter ``a``, the ahpm ones ignore it
_ORACLE: dict[tuple[str, str], tuple[dict[int, Callable], ...]] = {
    ("ex1", "ham"): (
        {0: lambda x, a: _e(x)},
        {1: lambda x, a: a * (x - 2) * _e(x)},
        {
            1: lambda x, a: a * (a + 1) * (x - 2) * _e(x),
            2: lambda x, a: 0.5 * a**2 * (x**2 - 4 * x + 2) * _e(x),
        },
        {
            1: lambda x, a: a * (a + 1) ** 2 * (x - 2) * _e(x),
            2: lambda x, a: a**2 * (a + 1) * (x**2 - 4 * x + 2) * _e(x),
            3: lambda x, a: (a**3 / 6.0) * (x**3 - 6 * x**2 + 6 * x) * _e(x),
        },
    ),
    ("ex1", "ahpm"): (
        {0: lambda x, a: _e(x)},
        {1: lambda x, a: (2 - x) * _e(x)},
        {2: lambda x, a: 0.5 * (x**2 - 4 * x + 2) * _e(x)},
        {3: lambda x, a: (-(x**3) / 6 + x**2 - x) * _e(x)},
        {4: lambda x, a: (x**4 / 24 - x**3 / 3 + x**2 / 2) * _e(x)},
        {5: lambda x, a: -(x**3) * (x**2 - 10 * x + 20) * _e(x) / 120.0},
    ),
    ("ex2", "ham"): (
        {0: lambda x, a: x * _e(x)},
        {1: lambda x, a: (a / 10.0) * _q1(x)},
        {
            1: lambda x, a: (a * (a + 1) / 10.0) * _q1(x),
            2: lambda x, a: (a**2 / 200.0) * _q2(x),
        },
        {
            1: lambda x, a: (a * (a + 1) ** 2 / 10.0) * _q1(x),
            2: lambda x, a: (a**2 * (a + 1) / 100.0) * _q2(x),
            3: lambda x, a: (a**3 / 6000.0) * _q3(x),
        },
    ),
    ("ex2", "ahpm"): (
        {0: lambda x, a: x * _e(x)},
        {1: lambda x, a: (2 + 2 * x - x**2) * _e(x) / 10.0},
        {2: lambda x, a: (x**3 - 4 * x**2 - 2 * x + 4) * _e(x) / 200.0},
        {3: lambda x, a: (-(x**4) / 6000 + x**3 / 1000 - x / 500) * _e(x)},
        {4: lambda x, a: (x**5 / 240000 - x**4 / 30000 + x**3 / 60000 + x**2 / 10000) * _e(x)},
    ),
    # exact fragment ratios 2/5 and 3/5 give inverse scales 5/2 and 5/3
    ("ex3", "ahpm"): (
        {0: lambda x, a: np.exp(-x)},
        {1: lambda x, a: (5.0 / 3.0) * np.exp(-(5.0 / 3.0) * x) + 2.5 * np.exp(-2.5 * x) - np.exp(-x)},
    ),
}


def oracle_table() -> tuple[tuple[str, str, int], ...]:
    """All shipped (case, method, order) closed-form reference entries."""
    return tuple((*key, m) for key in sorted(_ORACLE) for m in range(len(_ORACLE[key])))


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
    terms = _ORACLE.get((case_id, method))
    if terms is None:
        raise NoOracleError(f"no oracle terms for ({case_id}, {method})")
    if not 0 <= m < len(terms):
        raise NoOracleError(
            f"no oracle term of order {m} for ({case_id}, {method}); have 0..{len(terms) - 1}"
        )
    coeffs = np.zeros((max(terms[m]) + 1, grid.cells))
    for power, fn in terms[m].items():
        coeffs[power] = fn(grid.midpoints, alpha)
    return TimePoly(grid, coeffs)


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
