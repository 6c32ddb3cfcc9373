"""Shared reference implementations used as independent test oracles."""

from cbelab.collision import brute_force_rhs

__all__ = ["brute_force_rhs"]
