"""Size-domain partition of ``(0, R]``, cell-average projection, quadrature,
interpolation and norms shared by every solver.

Grids and grid functions are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cases import CustomIC, InitialCondition, _broadcast_call
from .errors import DomainError, GridMismatchError

__all__ = [
    "Grid",
    "GridFunction",
    "build_grid",
    "project_initial",
    "quad_moment",
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
    if not 0 < rmax < np.inf:
        raise DomainError(f"rmax must be finite and positive, got {rmax}")
    if cells < 2:
        raise DomainError(f"need at least 2 cells, got {cells}")
    # numpy refuses arrays of 2**63 bytes or more with ValueError, not MemoryError, and
    # linspace rounds the count through a double before it sizes the array
    if float(cells + 1) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise DomainError(f"{cells} cells exceed the largest array numpy can address")
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
        if not np.isfinite(values).all():
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
    if not isinstance(init, CustomIC):
        return GridFunction(grid, init.integral(grid.edges[:-1], grid.edges[1:]) / grid.widths)
    half = 0.5 * grid.widths
    nodes = grid.midpoints + half * _GL5_NODES[:, None]
    return GridFunction(grid, _GL5_WEIGHTS @ _broadcast_call(init.fn, nodes) * half / grid.widths)


@lru_cache(maxsize=4)
def _projected(init: InitialCondition, grid: Grid) -> np.ndarray:
    """``project_initial(init, grid).values`` (read-only), kept for the last four grids: the
    finite volumes and both series on one grid start from it, and table 1 runs each method
    over four grids in turn."""
    return project_initial(init, grid).values


def _moments(grid: Grid, values: np.ndarray, order: int) -> np.ndarray:
    """Midpoint-rule moment ``sum_i mid_i**order * v_i * width_i`` of each row of ``values``."""
    return (grid.midpoints**order * values * grid.widths).sum(axis=-1)


def quad_moment(g: GridFunction, order: int) -> float:
    """Midpoint-rule moment ``sum_i mid_i**order * g_i * width_i``."""
    if order < 0:
        raise DomainError(f"moment order must be >= 0, got {order}")
    return float(_moments(g.grid, g.values, order))


def _interp_rows(x: np.ndarray, xp: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, row)`` for each row along the last axis of ``rows``, shaped
    ``rows.shape[:-1] + x.shape``: linear between the nodes ``xp``, constant outside."""
    out = [np.interp(x, xp, row) for row in rows.reshape(-1, xp.size)]
    return np.reshape(out, rows.shape[:-1] + x.shape)


def l1_norm(g: GridFunction) -> float:
    """Discrete L1 norm ``sum_i |g_i| width_i``."""
    return float(np.sum(np.abs(g.values) * g.grid.widths))


def l1_distance(a: GridFunction, b: GridFunction) -> float:
    """Discrete L1 distance between two functions on the same grid."""
    _require_same_grid(a, b)
    return float(np.sum(np.abs(a.values - b.values) * a.grid.widths))
