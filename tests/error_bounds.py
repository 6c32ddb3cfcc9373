"""The paper's error bounds for the truncated HAM and AHPM series, and the
weighted norm they are stated in.

No command computes them, so they live beside their tests; a solver that comes
to read one takes it back into ``cbelab``.
"""

import numpy as np

from cbelab import DomainError, GridFunction


def geometric_error_bound(contraction: float, m: int, f1_norm: float) -> float:
    """Geometric tail bound ``contraction**m / (1 - contraction) * f1_norm``."""
    if not 0.0 < contraction < 1.0:
        raise DomainError(f"contraction factor must lie in (0, 1), got {contraction}")
    if not m >= 0:
        raise DomainError("order must be non-negative")
    if not f1_norm >= 0:
        raise DomainError("norm of the first correction must be non-negative")
    return contraction**m / (1.0 - contraction) * f1_norm


def ham_contraction(xi: float, alpha: float) -> float:
    """Effective contraction factor ``xi * |alpha| + |1 + alpha|`` of the
    control-parameter recursion."""
    if not xi >= 0:
        raise DomainError("contraction input must be non-negative")
    if not -1.0 <= alpha < 0.0:
        raise DomainError(f"control parameter must lie in [-1, 0), got {alpha}")
    return xi * abs(alpha) + abs(1.0 + alpha)


def weighted_norm(g: GridFunction, r: float = 1.0, s: float = 0.0) -> float:
    """Discrete weighted norm ``sum_i (mid_i**r + mid_i**(-2 s)) |g_i| width_i``."""
    if not r >= 1:
        raise DomainError(f"weight exponent r must be >= 1, got {r}")
    if not s >= 0:
        raise DomainError(f"weight exponent s must be >= 0, got {s}")
    mid = g.grid.midpoints
    weight = mid**r + mid ** (-2.0 * s)
    return float(np.sum(weight * np.abs(g.values) * g.grid.widths))
