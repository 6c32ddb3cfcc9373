"""The discrete collision operator shared by the finite-volume and series solvers.

Against a partner field ``h`` a particle of size ``x`` collides at the rate
``s(x) = sum_l K(x, m_l) h_l w_l`` (cell midpoints ``m``, widths ``w``).  The
loss in cell ``i`` is ``g_i s(m_i)``; the gain spreads the collision density
``g(x) s(x)`` of the parents over the fragment cells through a linear birth
map (``FragWeights``).

Every kernel is applied in factored form, ``K(x, y) = sum_k A_k(x) B_k(y)``
(``cases.kernel_factors``), so ``s = sum_k A_k (B_k . h w)`` costs O(rN) per
application and every birth map O(N).  The shipped kernels have rank r = 1; a
``CustomKernel`` gets the rank its adaptive cross approximation needs.

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

from functools import reduce

import numpy as np

from .cases import (
    DiscreteFragmentsBreakage,
    MassUniformBreakage,
    kernel_eval,
    kernel_factors,
)
from .errors import DomainError
from .grid import Grid, _interp_rows

__all__ = [
    "FragWeights",
    "CollisionOperator",
    "birth_map",
    "brute_force_rhs",
    "fragment_shares",
    "cauchy_product",
]


def cauchy_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cauchy product in time of two coefficient arrays, pointwise per column.

    Row ``k`` of each array multiplies ``t**k``; the other axes broadcast, so a
    single-column ``q`` applies across the columns of ``p``.
    """
    out = np.zeros((p.shape[0] + q.shape[0] - 1,) + np.broadcast_shapes(p.shape[1:], q.shape[1:]))
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


class _MassUniformWeights(FragWeights):
    def __call__(self, c: np.ndarray) -> np.ndarray:
        grid = self.grid
        # birth_i = 2 sum_{j > i} d_j + d_i: the own cell counts half
        d = c * (grid.widths / grid.midpoints)
        tail = np.cumsum(d[..., ::-1], axis=-1)[..., ::-1]
        return 2.0 * tail - d


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


class _InterpolatedWeights(FragWeights):
    def __init__(self, grid: Grid, ratios: tuple[float, ...]) -> None:
        super().__init__(grid)
        self.scale = 1.0 / np.array(ratios)
        self.sites = np.concatenate([grid.midpoints / ratio for ratio in ratios])
        self._inside = self.sites <= grid.rmax

    def sample(self, g: np.ndarray) -> np.ndarray:
        # linear between midpoints, constant past the last one, zero beyond R
        return _interp_rows(self.sites, self.grid.midpoints, g) * self._inside

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
        mid, sites = weights.grid.midpoints, weights.sites
        # one factorisation at [sites; midpoints], so birth and death share B
        rows = mid if sites is mid else np.concatenate([sites, mid])
        at, b = kernel_factors(kernel, rows, mid)
        self._at_sites, self._at_mid = at[:, : sites.size], at[:, -mid.size :]
        self._bw = b * weights.grid.widths

    def _sigma(self, h: np.ndarray) -> np.ndarray:
        """``sum_l B_k(m_l) w_l h_l``, rank ``k`` on a new last axis: a numpy sum, not BLAS, so
        a row's doubles do not depend on the row count of ``h`` or on the thread count."""
        return np.sum(h[..., None, :] * self._bw, axis=-1)

    def _rates(self, h: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Collision rates against the partner ``h`` at the sizes of the factor ``at``."""
        return np.dot(self._sigma(h), at)

    def birth(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return self.weights(self.weights.sample(g) * self._rates(h, self._at_sites))

    def death(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return g * self._rates(h, self._at_mid)

    def parent_pass(self, p: np.ndarray) -> tuple[np.ndarray, ...]:
        """Half of ``collide``, per rank ``k``: the birth map of ``p A_k`` minus ``p A_k``."""
        weights, sampled = self.weights, self.weights.sample(p)
        factors = zip(self._at_sites, self._at_mid)
        return tuple(weights(sampled * at) - p * at_mid for at, at_mid in factors)

    def partner_rates(self, q: np.ndarray) -> tuple[np.ndarray, ...]:
        """The other half, per rank ``k``: the scalar ``sigma_k`` of each time row of ``q``."""
        return tuple(sigma[:, None] for sigma in self._sigma(q).T)

    @staticmethod
    def product(passes: tuple, rates: tuple) -> np.ndarray:
        """``collide`` from its halves; the sum starts from its first term to keep -0.0."""
        return reduce(np.add, map(cauchy_product, passes, rates))

    def collide(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Time coefficients of gain minus loss for parents ``p`` and partners ``q``."""
        return self.product(self.parent_pass(p), self.partner_rates(q))

    def rhs(self, f: np.ndarray) -> np.ndarray:
        """Time derivative ``gain - loss`` of the state ``f``."""
        weights, rate = self.weights, self._rates(f, self._at_mid)
        # at midpoint sites birth and death share one rate
        site_rate = rate if weights.sites is weights.grid.midpoints else self._rates(f, self._at_sites)
        return weights(weights.sample(f) * site_rate) - f * rate


def fragment_shares(grid: Grid, breakage) -> np.ndarray:
    """Dense ``s[i, j]``: fragments that one collision of a parent at the
    midpoint ``m_j`` puts in cell ``i``, read off the breakage law.  Only
    ``brute_force_rhs`` reads it; the solvers run the O(N) birth maps.
    """
    lo, hi, mid = grid.edges[:-1, None], grid.edges[1:, None], grid.midpoints
    if isinstance(breakage, MassUniformBreakage):
        # density 2 / m_j on (0, m_j), integrated over each cell
        return 2.0 * np.clip(np.minimum(hi, mid) - lo, 0.0, None) / mid
    if isinstance(breakage, DiscreteFragmentsBreakage):
        # the cell rule: a fragment exactly on an edge belongs to the right cell
        return sum(
            ((lo <= ratio * mid) & (ratio * mid < hi)).astype(float)
            for ratio in breakage.ratio_floats
        )
    raise DomainError(f"unsupported breakage law {type(breakage).__name__}")


def brute_force_rhs(grid: Grid, breakage, kernel, f: np.ndarray) -> np.ndarray:
    """Reference ``gain - loss`` by the direct triple loop over cells.

    Reads only ``kernel_eval`` and the ``fragment_shares`` of the law, so it
    checks the factored operator and the birth maps above independently.
    O(N^3): small grids only.
    """
    shares = fragment_shares(grid, breakage)
    mid, w = grid.midpoints, grid.widths
    n = grid.cells
    out = np.zeros(n)
    for i in range(n):
        birth = 0.0
        for j in range(i, n):
            for l in range(n):
                birth += (
                    kernel_eval(kernel, mid[j], mid[l])
                    * f[j] * f[l] * w[j] * w[l] * shares[i, j]
                )
        death = sum(
            kernel_eval(kernel, mid[i], mid[j]) * f[i] * f[j] * w[j]
            for j in range(n)
        )
        out[i] = birth / w[i] - death
    return out
