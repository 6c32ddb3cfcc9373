"""The discrete collision operator shared by the finite-volume and series solvers.

Against a partner field ``h`` a particle of size ``x`` collides at the rate
``s(x) = sum_l K(x, m_l) h_l w_l`` (cell midpoints ``m``, widths ``w``).  The
loss in cell ``i`` is ``g_i s(m_i)``; the gain spreads the collision density
``g(x) s(x)`` of the parents over the fragment cells through a linear birth
map (``FragWeights``).

Every kernel is applied in factored form, ``K(x, y) = sum_k A_k(x) B_k(y)``
(``cases.kernel_factors``), so ``s = sum_k A_k (B_k . h w)`` costs O(rN) per
application and every birth map O(N).  The shipped kernels have rank r = 1; a
``CustomKernel`` gets the rank its adaptive cross approximation needs.  The rank
is an array axis just before the cells: a parent pass is ``(..., r, cells)``, the
partner rates ``(..., r, 1)``, and ``collide`` sums their products over it.

``CollisionOperator.taylor_rows`` is the equation's time-Taylor recursion: the
finite volumes step by it and the homotopy series are built from it.

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


def _poly_eval(coeffs: np.ndarray, t) -> np.ndarray:
    """Horner values at a time (shape ``(cells,)``) or a 1-D array of times (``(times, cells)``)."""
    times = np.asarray(t, dtype=float)
    out = np.zeros(times.shape + coeffs.shape[1:])
    column = times[..., None]
    for row in coeffs[::-1]:
        out *= column
        out += row
    return out


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
    def __init__(self, grid: Grid) -> None:
        super().__init__(grid)
        self.scale = grid.widths / grid.midpoints

    def __call__(self, c: np.ndarray) -> np.ndarray:
        # birth_i = 2 sum_{j > i} d_j + d_i: the own cell counts half
        d = c * self.scale
        birth = 2.0 * d[..., ::-1].cumsum(axis=-1)[..., ::-1]
        birth -= d
        return birth


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
        return (per_ratio * self.scale[:, None]).sum(axis=-2)


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
    """Gain and loss of the collision-breakage equation for one birth map and one
    kernel.  Arrays carry cells on the last axis; ``collide`` takes time rows first
    and sums over the rank axis of ``parent_pass`` ``(..., r, cells)`` times
    ``partner_rates`` ``(..., r, 1)``.
    """

    def __init__(self, weights: FragWeights, kernel) -> None:
        self.weights = weights
        mid, sites = weights.grid.midpoints, weights.sites
        # one factorisation at [sites; midpoints], so the passes at the sites and at the midpoints share B
        rows = mid if sites is mid else np.concatenate([sites, mid])
        at, b = kernel_factors(kernel, rows, mid)
        self._at_sites, self._at_mid = at[:, : sites.size], at[:, -mid.size :]
        self._bw = b * weights.grid.widths

    def parent_pass(self, p: np.ndarray) -> np.ndarray:
        """Half of ``collide``: the birth map of ``p A_k`` minus ``p A_k``, rank ``k`` on a new
        axis before the cells, so a ``(..., cells)`` array gives ``(..., r, cells)``."""
        weights = self.weights
        birth = weights(weights.sample(p)[..., None, :] * self._at_sites)
        birth -= p[..., None, :] * self._at_mid
        return birth

    def partner_rates(self, q: np.ndarray) -> np.ndarray:
        """The other half: ``sigma_k = sum_l B_k(m_l) w_l q_l`` per time row, ``(..., r, 1)``; a
        numpy sum, not BLAS, so a row's doubles depend on neither row nor thread count."""
        return (q[..., None, :] * self._bw).sum(axis=-1, keepdims=True)

    def collide(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Time coefficients of gain minus loss for parents ``p`` and partners ``q``; axes other
        than time and cells broadcast.  The ranks sum in order, first to last."""
        return np.add.reduce(cauchy_product(self.parent_pass(p), self.partner_rates(q)), axis=-2)

    def taylor_rows(self, f0: np.ndarray, order: int) -> np.ndarray:
        """Time-Taylor rows ``c_0 = f0 .. c_order`` of ``df/dt = collide(f, f)``, stacked:
        ``c_{m+1} = sum_k collide(c_k, c_{m-k}) / (m + 1)``.  Each row's parent pass and
        partner rates go into tables allocated once per call (the last row's never), and
        row ``m + 1`` is one product of the passes ``k = 0 .. m`` with the rates
        ``m - k`` and one ordered reduction of it, k first and rank second."""
        cells, rank = f0.size, self._at_mid.shape[0]
        rows = np.zeros((order + 1, cells))
        passes, products = np.zeros((2, order, rank, cells))
        rates = np.zeros((order, rank, 1))
        rows[0] = f0
        for m in range(order):
            passes[m] = self.parent_pass(rows[m])
            rates[m] = self.partner_rates(rows[m])
            np.multiply(passes[: m + 1], rates[m::-1], out=products[: m + 1])
            # a leading-axis reduce adds row by row, never pairwise; 0.0 + x turns -0.0 into 0.0
            np.add.reduce(
                products[: m + 1].reshape(-1, cells), axis=0, initial=0.0, out=rows[m + 1]
            )
            rows[m + 1] *= 1.0 / (m + 1)
        return rows


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
