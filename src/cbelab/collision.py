"""The discrete collision operator shared by the finite-volume and series solvers.

Against a partner field ``h`` a particle of size ``x`` collides at the rate
``s(x) = sum_l K(x, m_l) h_l w_l`` (cell midpoints ``m``, widths ``w``).  The
loss in cell ``i`` is ``g_i s(m_i)``; the gain spreads the collision density
``g(x) s(x)`` of the parents over the fragment cells through a linear birth
map (``FragWeights``).

Both shipped kernels are rank one, ``K(x, y) = a(x) b(y)``, so
``s = a * (b . h w)`` costs O(N) per application, and so does every birth map.
``CustomKernel`` keeps a dense rate table and costs O(N^2).

Birth maps:

- mass-uniform breakage: a suffix sum over the parents; a parent in the
  target cell itself contributes from the midpoint up, i.e. half its width,
  so a parent at the midpoint never produces fragments larger than itself;
- discrete fragments, cell rule (finite volumes): each delta fragment lands
  whole in the half-open cell containing it, which keeps the fragment count
  per event exact;
- discrete fragments, interpolated rule (series): the parent density is
  interpolated at ``m_i / ratio`` and vanishes beyond the truncation radius.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .cases import DiscreteFragmentsBreakage, MassUniformBreakage, kernel_factors, kernel_matrix
from .errors import DomainError
from .grid import Grid

__all__ = [
    "FragWeights",
    "CollisionOperator",
    "birth_map",
    "cauchy_product",
]


def cauchy_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cauchy product in time of two coefficient arrays, pointwise per column.

    Row ``k`` of each array multiplies ``t**k``; a single-column ``q`` is
    broadcast across the columns of ``p``.
    """
    out = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1]))
    for b, row in enumerate(q):
        out[b : b + p.shape[0]] += p * row
    return out


class FragWeights:
    """Birth map of one breakage law on one grid.

    Calling it maps the collision density at ``sites`` (parent concentration
    times partner rate, last axis) to the birth rate in each cell.
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.sites = grid.midpoints

    def sample(self, g: np.ndarray) -> np.ndarray:
        """Parent concentration at the sites."""
        return g

    def __call__(self, c: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def table(self) -> np.ndarray:
        """Dense view ``w[i, j]``: fragments landing in cell i per collision of
        a parent in cell j; zero below the diagonal.  Built on first access.
        """
        table = self._table()
        table.setflags(write=False)
        return table

    def _table(self) -> np.ndarray:
        raise DomainError(f"{type(self).__name__} has no cell-to-cell table")


class _MassUniformWeights(FragWeights):
    def __call__(self, c: np.ndarray) -> np.ndarray:
        grid = self.grid
        # birth_i = 2 sum_{j > i} d_j + d_i: the own cell counts half
        d = c * (grid.widths / grid.midpoints)
        tail = np.cumsum(d[..., ::-1], axis=-1)[..., ::-1]
        return 2.0 * tail - d

    def _table(self) -> np.ndarray:
        mid, lower = self.grid.midpoints, self.grid.edges[:-1]
        table = np.triu(2.0 * self.grid.widths[:, None] / mid[None, :], k=1)
        np.fill_diagonal(table, 2.0 * (mid - lower) / mid)
        return table


class _CellWeights(FragWeights):
    def __init__(self, grid: Grid, ratios: tuple[float, ...]) -> None:
        super().__init__(grid)
        # a fragment exactly on an edge belongs to the right cell
        self.targets = tuple(
            np.searchsorted(grid.edges, ratio * grid.midpoints, side="right") - 1
            for ratio in ratios
        )

    def __call__(self, c: np.ndarray) -> np.ndarray:
        number = c * self.grid.widths
        out = np.zeros_like(number)
        for target in self.targets:
            np.add.at(out, (..., target), number)
        return out / self.grid.widths

    def _table(self) -> np.ndarray:
        cells = self.grid.cells
        table = np.zeros((cells, cells))
        for target in self.targets:
            table[target, np.arange(cells)] += 1.0
        return table


class _InterpolatedWeights(FragWeights):
    def __init__(self, grid: Grid, ratios: tuple[float, ...]) -> None:
        super().__init__(grid)
        self.scale = 1.0 / np.array(ratios)
        self.sites = np.concatenate([grid.midpoints / ratio for ratio in ratios])
        self._inside = self.sites <= grid.rmax

    def sample(self, g: np.ndarray) -> np.ndarray:
        # linear between midpoints, constant past the last one, zero beyond R
        mid = self.grid.midpoints
        rows = [np.interp(self.sites, mid, row) for row in g.reshape(-1, mid.size)]
        return np.reshape(rows, g.shape[:-1] + self.sites.shape) * self._inside

    def __call__(self, c: np.ndarray) -> np.ndarray:
        per_ratio = c.reshape(c.shape[:-1] + (self.scale.size, self.grid.cells))
        return np.sum(per_ratio * self.scale[:, None], axis=-2)


def birth_map(grid: Grid, breakage, interpolated: bool = False) -> FragWeights:
    """Birth map of ``breakage`` on ``grid``; ``interpolated`` selects the
    series rule for discrete fragments instead of the cell rule.
    """
    if isinstance(breakage, MassUniformBreakage):
        return _MassUniformWeights(grid)
    if isinstance(breakage, DiscreteFragmentsBreakage):
        rule = _InterpolatedWeights if interpolated else _CellWeights
        return rule(grid, breakage.ratio_floats)
    raise DomainError(f"unsupported breakage law {type(breakage).__name__}")


class CollisionOperator:
    """Gain and loss of the collision-breakage equation for one birth map and
    one kernel.  Arrays carry cells on the last axis; ``collide`` takes time
    coefficient arrays with one row per power of t.
    """

    def __init__(self, weights: FragWeights, kernel) -> None:
        self.weights = weights
        mid, widths = weights.grid.midpoints, weights.grid.widths
        same_sites = weights.sites is mid
        factors = kernel_factors(kernel, weights.sites, mid)
        self.rank_one = factors is not None
        # the kernel at the parent sites and at the midpoints: the factor a(x)
        # of a rank-1 kernel, else the dense table K(x, m_l) * w_l
        if self.rank_one:
            self._at_sites, b = factors
            self._at_mid = self._at_sites if same_sites else kernel_factors(kernel, mid, mid)[0]
            self._bw = b * widths
        else:
            self._at_sites = kernel_matrix(kernel, weights.sites, mid) * widths
            self._at_mid = self._at_sites if same_sites else kernel_matrix(kernel, mid, mid) * widths

    def _rates(self, h: np.ndarray, kernel_at: np.ndarray) -> np.ndarray:
        """Collision rates against the partner ``h`` at the sizes of ``kernel_at``."""
        if self.rank_one:
            return np.multiply.outer(h @ self._bw, kernel_at)
        return h @ kernel_at.T

    def birth(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return self.weights(self.weights.sample(g) * self._rates(h, self._at_sites))

    def death(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return g * self._rates(h, self._at_mid)

    def collide(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Time coefficients of gain minus loss for parents ``p`` and partners ``q``."""
        weights = self.weights
        if self.rank_one:
            # s(x) = a(x) sigma(q): one birth pass over p, then a scalar per time row
            per_unit = weights(weights.sample(p) * self._at_sites) - p * self._at_mid
            return cauchy_product(per_unit, (q @ self._bw)[:, None])
        gain = weights(cauchy_product(weights.sample(p), self._rates(q, self._at_sites)))
        return gain - cauchy_product(p, self._rates(q, self._at_mid))

    def rhs(self, f: np.ndarray) -> np.ndarray:
        """Time derivative ``gain - loss`` of the state ``f``."""
        return self.birth(f, f) - self.death(f, f)
