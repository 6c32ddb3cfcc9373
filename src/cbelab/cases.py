"""Benchmark problem definitions: collision kernels, breakage laws, initial data,
closed-form references and the registry of the three shipped test cases.

Everything here is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .errors import DivergenceError, DomainError, NoExactReferenceError, UnknownCaseError

__all__ = [
    "ConstantKernel",
    "ProductKernel",
    "CustomKernel",
    "KernelSpec",
    "kernel_eval",
    "kernel_matrix",
    "kernel_factors",
    "MassUniformBreakage",
    "DiscreteFragmentsBreakage",
    "BreakageSpec",
    "ExponentialIC",
    "WeightedExponentialIC",
    "CustomIC",
    "InitialCondition",
    "ExactReference",
    "CaseSpec",
    "registry_case",
    "case_ids",
    "with_overrides",
    "exact_concentration",
    "exact_moment",
]


# --------------------------------------------------------------------------
# collision kernels
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantKernel:
    """Size-independent collision rate ``K(x, y) = rate``."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.rate < np.inf:
            raise DomainError(f"collision rate must be finite and non-negative, got {self.rate}")


@dataclass(frozen=True)
class ProductKernel:
    """Multiplicative collision rate ``K(x, y) = scale * x * y``."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.scale < np.inf:
            raise DomainError(f"kernel scale must be finite and non-negative, got {self.scale}")


@dataclass(frozen=True, eq=False)
class CustomKernel:
    """Symmetric, non-negative rate ``fn(x, y)``, called once per table, column or row
    on float arrays that broadcast; it returns their broadcast shape, or a scalar.
    Use ``np.where``, ``np.minimum`` and numpy ufuncs, or wrap it in ``np.vectorize``.
    Compared and hashed by identity, so the solvers' caches take any ``fn``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]


KernelSpec = ConstantKernel | ProductKernel | CustomKernel


def _broadcast_call(fn: Callable[..., np.ndarray], *args) -> np.ndarray:
    """``fn(*args)`` from one call, as a float array of the arguments' broadcast shape."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, args)))
    try:
        if out.size:  # the cross approximation may ask for no values; np.vectorize refuses that
            out[...] = fn(*args)
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"custom function {getattr(fn, '__name__', fn)} must take numpy arrays and return "
            f"their broadcast shape ({exc}); use np.where and numpy ufuncs, or np.vectorize"
        ) from exc
    return out


def _kernel_rates(kernel: KernelSpec, x, y) -> np.ndarray:
    """``K(x, y)`` over the broadcast shape of ``x`` and ``y``: the one reader of a formula."""
    if isinstance(kernel, ConstantKernel):
        return _broadcast_call(lambda x, y: kernel.rate, x, y)
    if isinstance(kernel, ProductKernel):
        # scale * (x * y) is bit-symmetric in x and y, and bit-equal to scale * np.outer
        return _broadcast_call(lambda x, y: kernel.scale * (x * y), x, y)
    return _broadcast_call(kernel.fn, x, y)


def kernel_eval(kernel: KernelSpec, x: float, y: float) -> float:
    """Collision rate between particle sizes ``x`` and ``y``."""
    if not (x > 0 and y > 0):
        raise DomainError(f"kernel arguments must be positive, got ({x}, {y})")
    return float(_kernel_rates(kernel, x, y))


def kernel_matrix(kernel: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rate table ``K[i, j] = K(x[i], y[j])`` from one call on ``x[:, None]``, ``y[None, :]``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return _kernel_rates(kernel, x[:, None], y[None, :])


def kernel_factors(
    kernel: KernelSpec, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(A, B)`` with ``K(x[i], y[j]) = sum_k A[k, i] B[k, j]``, one rank per row.

    Shipped kernels are separable, ``K(x, y) = K(1, x) K(1, y) / K(1, 1)``: r = 1.
    A ``CustomKernel`` gets adaptive cross approximation (Bebendorf 2000) with
    column pivots, as ``x`` may repeat sizes.  It reads each value once: a column
    off by over 1e-14 of the largest adds a cross; NaN or inf raise DivergenceError.
    """
    x, y, unit = np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.ones(1)
    if not isinstance(kernel, CustomKernel):
        pivot = kernel_eval(kernel, 1.0, 1.0)  # zero for the zero kernel, whose A is zero
        b = kernel_matrix(kernel, unit, y) / pivot if pivot != 0.0 else np.zeros((1, y.size))
        return kernel_matrix(kernel, unit, x), b
    a, b = np.zeros((1, x.size)), np.zeros((1, y.size))  # grown by doubling
    free_rows, free_cols, rank, scale, j = np.ones(x.size, bool), np.ones(y.size, bool), 0, 0.0, 0
    while True:
        free_cols[j] = False
        u = np.zeros(x.size)
        u[free_rows] = kernel_matrix(kernel, x[free_rows], y[j : j + 1])[:, 0]
        scale = np.maximum(scale, np.max(np.abs(u)))  # NaN once a value is
        u = np.where(free_rows, u - b[:rank, j] @ a[:rank], 0.0)
        i = np.argmax(np.abs(u))
        crossed = abs(u[i]) > 1e-14 * scale
        if crossed:  # row i then has no residual left, nor has a read column: neither is reread
            v = np.zeros(y.size)
            v[free_cols] = kernel_matrix(kernel, x[i : i + 1], y[free_cols])[0]
            scale = np.maximum(scale, np.max(np.abs(v)))
            v = np.where(free_cols, v - a[:rank, i] @ b[:rank], 0.0)
            v[j], free_rows[i] = u[i], False
            if rank == len(a):
                a, b = (np.concatenate([m, np.empty_like(m)]) for m in (a, b))
            a[rank], b[rank], rank = u / u[i], v, rank + 1
        if not np.isfinite(scale):
            raise DivergenceError(f"non-finite collision rate near sizes ({x[i]}, {y[j]})")
        if not free_cols.any():
            return a[: max(rank, 1)], b[: max(rank, 1)]  # the zero kernel keeps one zero rank
        j = np.argmax(np.where(free_cols, np.abs(v), -1.0) if crossed else free_cols)


# --------------------------------------------------------------------------
# breakage distributions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MassUniformBreakage:
    """Binary mass-uniform law ``b(x, parent, other) = 2 / parent`` on ``0 < x < parent``.

    Independent of the colliding partner size.
    """


@dataclass(frozen=True)
class DiscreteFragmentsBreakage:
    """Fixed fragmentation ratios: a parent of size ``p`` yields one fragment of
    size ``a_k * p`` per ratio.  Ratios are exact rationals and must sum to one
    so the law conserves mass identically.
    """

    ratios: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ratios = tuple(Fraction(a) for a in self.ratios)
        object.__setattr__(self, "ratios", ratios)
        if not ratios:
            raise DomainError("at least one fragmentation ratio required")
        for a in ratios:
            if not (0 < a < 1):
                raise DomainError(f"fragment ratio {a} outside (0, 1)")
        total = sum(ratios)
        if total != 1:
            raise DomainError(f"fragment ratios must sum to 1 exactly, got {total}")

    @property
    def ratio_floats(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.ratios)


BreakageSpec = MassUniformBreakage | DiscreteFragmentsBreakage


# --------------------------------------------------------------------------
# initial conditions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialIC:
    """Initial distribution ``exp(-x)``."""

    def integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return np.exp(-lo) - np.exp(-hi)


@dataclass(frozen=True)
class WeightedExponentialIC:
    """Initial distribution ``x * exp(-x)``."""

    def integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return (1.0 + lo) * np.exp(-lo) - (1.0 + hi) * np.exp(-hi)


@dataclass(frozen=True, eq=False)
class CustomIC:
    """Non-negative ``fn(x)`` with finite moments 0..2, called once on the array of
    every cell's Gauss-Legendre nodes; it returns that shape, as ``CustomKernel`` does,
    and is compared and hashed by identity, as ``CustomKernel`` is.
    """

    fn: Callable[[np.ndarray], np.ndarray]


InitialCondition = ExponentialIC | WeightedExponentialIC | CustomIC


# --------------------------------------------------------------------------
# exact references and cases
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactReference:
    """Closed-form reference data; any component may be absent.  The moments
    mapping takes part in equality but not in the hash, so cases hash."""

    concentration: Callable[[float, np.ndarray], np.ndarray] | None = None
    moments: Mapping[int, Callable[[float], float]] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class CaseSpec:
    """A benchmark problem: kernel, breakage law, initial condition, truncation
    radius, time horizon, exact references and the published control parameter.
    """

    id: str
    kernel: KernelSpec
    breakage: BreakageSpec
    init: InitialCondition
    rmax: float
    tend: float
    exact: ExactReference = field(default_factory=ExactReference)
    reference_alpha: float | None = None
    tend_limit: float | None = None  # open upper bound when moments blow up

    def __post_init__(self) -> None:
        if not 0 < self.rmax < np.inf:
            raise DomainError(f"rmax must be finite and positive, got {self.rmax}")
        if not 0 < self.tend < np.inf:
            raise DomainError(f"tend must be finite and positive, got {self.tend}")
        if self.tend_limit is not None and self.tend >= self.tend_limit:
            raise DomainError(
                f"case {self.id!r} requires tend < {self.tend_limit}, got {self.tend}"
            )

    def within_horizon(self, t: float) -> bool:
        """``t <= tend`` up to four ulps of ``tend``, the rounding of a time
        computed from the horizon; a slack fixed in absolute terms would let
        through times far past a short horizon."""
        return t <= self.tend + 4 * math.ulp(self.tend)


def _ex1_concentration(t: float, x: np.ndarray) -> np.ndarray:
    return (1.0 + t) ** 2 * np.exp(-np.asarray(x, dtype=float) * (1.0 + t))


def _build_registry() -> dict[str, CaseSpec]:
    ex1 = CaseSpec(
        id="ex1",
        kernel=ProductKernel(1.0),
        breakage=MassUniformBreakage(),
        init=ExponentialIC(),
        rmax=10.0,
        tend=1.0,
        exact=ExactReference(
            concentration=_ex1_concentration,
            moments={
                0: lambda t: 1.0 + t,
                1: lambda t: 1.0,
                2: lambda t: 2.0 / (1.0 + t),
            },
        ),
        reference_alpha=-0.826,
    )
    ex2 = CaseSpec(
        id="ex2",
        kernel=ProductKernel(1.0 / 20.0),
        breakage=MassUniformBreakage(),
        init=WeightedExponentialIC(),
        rmax=20.0,
        tend=1.0,
        exact=ExactReference(
            moments={
                0: lambda t: 1.0 + t / 5.0,
                1: lambda t: 2.0,
            },
        ),
        reference_alpha=-0.969,
    )
    # second-moment decay exponent 1 - sum(a_k^2) = 12/25, exact
    m2_exponent = float(1 - (Fraction(2, 5) ** 2 + Fraction(3, 5) ** 2))
    ex3 = CaseSpec(
        id="ex3",
        kernel=ConstantKernel(1.0),
        breakage=DiscreteFragmentsBreakage((Fraction(2, 5), Fraction(3, 5))),
        init=ExponentialIC(),
        rmax=20.0,
        tend=0.5,
        exact=ExactReference(
            moments={
                0: lambda t: 1.0 / (1.0 - t),
                1: lambda t: 1.0,
                2: lambda t: 2.0 * (1.0 - t) ** m2_exponent,
            },
        ),
        reference_alpha=-0.829,
        tend_limit=1.0,
    )
    return {c.id: c for c in (ex1, ex2, ex3)}


_REGISTRY = _build_registry()


def registry_case(case_id: str) -> CaseSpec:
    """Look up one of the shipped benchmark cases by id."""
    try:
        return _REGISTRY[case_id]
    except KeyError:
        raise UnknownCaseError(
            f"unknown case {case_id!r}; available: {sorted(_REGISTRY)}"
        ) from None


def case_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def with_overrides(
    case: CaseSpec, rmax: float | None = None, tend: float | None = None
) -> CaseSpec:
    """Copy of ``case`` with a different truncation radius and/or horizon."""
    if rmax is None and tend is None:
        return case
    return dataclasses.replace(
        case,
        rmax=case.rmax if rmax is None else float(rmax),
        tend=case.tend if tend is None else float(tend),
    )


def exact_concentration(case: CaseSpec, t: float, x: np.ndarray | float):
    """Closed-form concentration, where the case has one."""
    if case.exact.concentration is None:
        raise NoExactReferenceError(f"case {case.id!r} has no exact concentration")
    if not t >= 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if not np.all(np.asarray(x) > 0):
        raise DomainError("sizes must be positive")
    return case.exact.concentration(t, np.asarray(x, dtype=float))


def exact_moment(case: CaseSpec, order: int, t: float) -> float:
    """Closed-form moment of the given order, where the case has one."""
    fn = case.exact.moments.get(order)
    if fn is None:
        raise NoExactReferenceError(
            f"case {case.id!r} has no exact moment of order {order}"
        )
    if not t >= 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if case.tend_limit is not None and t >= case.tend_limit:
        raise DomainError(
            f"case {case.id!r} moments are defined for t < {case.tend_limit}"
        )
    return float(fn(t))
