"""Size-domain partition of ``(0, R]``, cell-average projection, quadrature,
interpolation and weighted norms shared by every solver.

Grids and grid functions are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cases import CustomIC, InitialCondition
from .errors import DomainError, GridMismatchError

__all__ = [
    "Grid",
    "GridFunction",
    "build_grid",
    "project_initial",
    "quad_moment",
    "interp_eval",
    "weighted_norm",
    "l1_norm",
    "l1_distance",
]

# 5-point Gauss-Legendre nodes/weights on [-1, 1], used for custom projections
_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)


@dataclass(frozen=True, eq=False)
class Grid:
    """Partition of ``(0, R]`` into cells with edges, midpoints and widths.

    ``edges[0]`` is exactly 0 and ``edges[-1]`` exactly R.  Identity-based
    equality keeps grids usable as cache keys.
    """

    edges: np.ndarray
    midpoints: np.ndarray = field(init=False, repr=False)
    widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 3:
            raise DomainError("a grid needs at least two cells")
        if edges[0] != 0.0:
            raise DomainError("first edge must be exactly 0")
        if np.any(np.diff(edges) <= 0):
            raise DomainError("edges must be strictly increasing")
        edges = edges.copy()
        edges.setflags(write=False)
        midpoints = 0.5 * (edges[:-1] + edges[1:])
        midpoints.setflags(write=False)
        widths = np.diff(edges)
        widths.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "midpoints", midpoints)
        object.__setattr__(self, "widths", widths)

    @property
    def cells(self) -> int:
        return self.edges.size - 1

    @property
    def rmax(self) -> float:
        return float(self.edges[-1])


def build_grid(
    rmax: float,
    cells: int,
    scheme: str = "uniform",
    eps_min: float | None = None,
) -> Grid:
    """Build a uniform or geometric partition of ``(0, rmax]``.

    The geometric scheme places the first interior edge at ``eps_min`` and
    grows edges by the constant ratio ``(rmax / eps_min) ** (1 / (cells - 1))``
    so the last edge lands exactly on ``rmax``.
    """
    if rmax <= 0:
        raise DomainError(f"rmax must be positive, got {rmax}")
    if cells < 2:
        raise DomainError(f"need at least 2 cells, got {cells}")
    if scheme == "uniform":
        edges = np.linspace(0.0, rmax, cells + 1)
    elif scheme == "geometric":
        if eps_min is None or not (0 < eps_min < rmax):
            raise DomainError("geometric grids need 0 < eps_min < rmax")
        ratio = (rmax / eps_min) ** (1.0 / (cells - 1))
        edges = np.empty(cells + 1)
        edges[0] = 0.0
        edges[1:] = eps_min * ratio ** np.arange(cells)
        edges[-1] = rmax  # clamp the accumulated power to the exact endpoint
    else:
        raise DomainError(f"unknown grid scheme {scheme!r}")
    return Grid(edges=edges)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Per-cell averages of a concentration profile on a fixed grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.cells,):
            raise DomainError(
                f"expected {self.grid.cells} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("grid function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _require_same_grid(a: GridFunction, b: GridFunction) -> None:
    if a.grid is not b.grid:
        raise GridMismatchError("grid functions live on different grids")


def project_initial(init: InitialCondition, grid: Grid) -> GridFunction:
    """Cell averages of an initial distribution.

    Uses the closed-form antiderivative for the shipped exponential profiles
    and 5-point Gauss-Legendre quadrature per cell otherwise.
    """
    lo, hi = grid.edges[:-1], grid.edges[1:]
    if isinstance(init, CustomIC):
        half = 0.5 * grid.widths
        mid = grid.midpoints
        acc = np.zeros(grid.cells)
        for node, weight in zip(_GL5_NODES, _GL5_WEIGHTS):
            acc += weight * np.asarray(init(mid + half * node), dtype=float)
        cell_integrals = acc * half
    else:
        cell_integrals = init.integral(lo, hi)
    return GridFunction(grid, cell_integrals / grid.widths)


def quad_moment(g: GridFunction, order: int) -> float:
    """Midpoint-rule moment ``sum_i mid_i**order * g_i * width_i``."""
    if order < 0:
        raise DomainError(f"moment order must be >= 0, got {order}")
    grid = g.grid
    return float(np.sum(grid.midpoints**order * g.values * grid.widths))


def interp_eval(g: GridFunction, x: np.ndarray | float):
    """Piecewise-linear evaluation between midpoints.

    Constant extension from the first/last midpoint to the domain boundary,
    zero beyond the truncation radius.
    """
    grid = g.grid
    arr = np.asarray(x, dtype=float)
    out = np.interp(arr, grid.midpoints, g.values)
    out = np.where(arr > grid.rmax, 0.0, out)
    if arr.ndim == 0:
        return float(out)
    return out


def weighted_norm(g: GridFunction, r: float = 1.0, s: float = 0.0) -> float:
    """Discrete weighted norm ``sum_i (mid_i**r + mid_i**(-2 s)) |g_i| width_i``."""
    if r < 1:
        raise DomainError(f"weight exponent r must be >= 1, got {r}")
    if s < 0:
        raise DomainError(f"weight exponent s must be >= 0, got {s}")
    mid = g.grid.midpoints
    weight = mid**r + mid ** (-2.0 * s)
    return float(np.sum(weight * np.abs(g.values) * g.grid.widths))


def l1_norm(g: GridFunction) -> float:
    """Discrete L1 norm ``sum_i |g_i| width_i``."""
    return float(np.sum(np.abs(g.values) * g.grid.widths))


def l1_distance(a: GridFunction, b: GridFunction) -> float:
    """Discrete L1 distance between two functions on the same grid."""
    _require_same_grid(a, b)
    return float(np.sum(np.abs(a.values - b.values) * a.grid.widths))
