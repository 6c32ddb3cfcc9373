import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from support import brute_force_rhs

from cbelab import (
    CaseSpec,
    CustomKernel,
    DiscreteFragmentsBreakage,
    ExponentialIC,
    GridFunction,
    MassUniformBreakage,
    ProductKernel,
    ahpm_terms,
    birth_apply,
    build_grid,
    death_apply,
    fvm_rhs,
    integrate,
    precompute_weights,
    project_initial,
    registry_case,
)

LAWS = [MassUniformBreakage(), DiscreteFragmentsBreakage((Fraction(2, 5), Fraction(3, 5)))]


def _grid(rmax, cells, scheme):
    return build_grid(rmax, cells, scheme, eps_min=1e-3 if scheme == "geometric" else None)


# ex3 (discrete fragments) is left out on purpose: the finite volumes drop each
# fragment whole into one cell while the series interpolate the parent density.
# For the projected initial data at 200 cells the two right-hand sides differ by
# 17 % (uniform) and 2.3 % (geometric) of max |rhs|.  The ROADMAP item
# "Conservative discrete-fragment discretisation" gives both one rule.
@pytest.mark.parametrize("case_id", ["ex1", "ex2"])
@pytest.mark.parametrize("scheme", ["uniform", "geometric"])
def test_fvm_and_series_share_the_mass_uniform_operator(case_id, scheme):
    case = registry_case(case_id)
    grid = _grid(case.rmax, 200, scheme)
    f = project_initial(case.init, grid)
    fvm = fvm_rhs(grid, precompute_weights(grid, case.breakage), case.kernel, f).values
    series = (
        birth_apply(case.kernel, case.breakage, f, f).values
        - death_apply(case.kernel, f, f).values
    )
    assert np.max(np.abs(fvm - series)) <= 1e-13 * np.max(np.abs(fvm))


@pytest.mark.parametrize("law", LAWS, ids=["mass-uniform", "fragments"])
def test_dense_custom_kernel_matches_rank_one_product_kernel(law, rng):
    grid = build_grid(10.0, 40)
    rank_one, dense = ProductKernel(1.0), CustomKernel(lambda x, y: x * y)
    f = GridFunction(grid, rng.uniform(0.0, 1.0, grid.cells))
    h = GridFunction(grid, rng.uniform(0.0, 1.0, grid.cells))
    weights = precompute_weights(grid, law)
    pairs = [
        (fvm_rhs(grid, weights, rank_one, f), fvm_rhs(grid, weights, dense, f)),
        (birth_apply(rank_one, law, f, h), birth_apply(dense, law, f, h)),
        (death_apply(rank_one, f, h), death_apply(dense, f, h)),
    ]
    for fast, slow in pairs:
        scale = np.max(np.abs(fast.values))
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-13 * scale


@pytest.mark.parametrize("law", LAWS, ids=["mass-uniform", "fragments"])
def test_dense_custom_kernel_series_match_rank_one(law):
    grid = build_grid(10.0, 40)
    cases = [
        CaseSpec(id=name, kernel=kernel, breakage=law, init=ExponentialIC(), rmax=10.0, tend=0.5)
        for name, kernel in (
            ("rank-one", ProductKernel(1.0)),
            ("dense", CustomKernel(lambda x, y: x * y)),
        )
    ]
    fast, slow = (ahpm_terms(case, grid, 3) for case in cases)
    for a, b in zip(fast.terms, slow.terms):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(a.coeffs))


@pytest.mark.parametrize("law", LAWS, ids=["mass-uniform", "fragments"])
def test_non_separable_custom_kernel_matches_brute_force(law, rng):
    grid = build_grid(6.0, 12)
    kernel = CustomKernel(lambda x, y: x + y)
    weights = precompute_weights(grid, law)
    f = GridFunction(grid, rng.uniform(0.0, 1.0, grid.cells))
    fast = fvm_rhs(grid, weights, kernel, f).values
    slow = brute_force_rhs(grid, weights.table, kernel, f.values)
    assert fast == pytest.approx(slow, abs=1e-12)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case_id", ["ex1", "ex3"])
def test_no_dense_tables(case_id):
    # a dense N x N float table alone would need 8 * N * N bytes
    case = registry_case(case_id)
    cells = 2000
    row = 8 * cells
    peak = _peak_bytes(integrate, case, build_grid(case.rmax, cells), (0.0, case.tend))
    assert peak < 100 * row
    peak = _peak_bytes(ahpm_terms, case, build_grid(case.rmax, cells), 5)
    assert peak < 400 * row
