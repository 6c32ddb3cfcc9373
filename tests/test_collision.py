import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cbelab import (
    CaseSpec,
    ConstantKernel,
    CustomKernel,
    DiscreteFragmentsBreakage,
    DivergenceError,
    DomainError,
    ExponentialIC,
    MassUniformBreakage,
    ProductKernel,
    ahpm_terms,
    build_grid,
    integrate,
    precompute_weights,
    project_initial,
    registry_case,
)
from cbelab.cases import kernel_factors, kernel_matrix
from cbelab.collision import CollisionOperator, birth_map, brute_force_rhs, cauchy_product

LAWS = [MassUniformBreakage(), DiscreteFragmentsBreakage((Fraction(2, 5), Fraction(3, 5)))]
LAW_IDS = ["mass-uniform", "fragments"]
# non-separable kernels of rising numerical rank; differential sedimentation
# has full rank on every grid.  The step and the mid-grid bump hide their
# non-smooth part from the first pivots, which sit at the first column and the
# largest sizes.
KERNEL_IDS = [
    "sum", "brownian", "free-molecular", "diff-sedimentation", "product-bump",
    "step", "mid-bump",
]


def _cell_pair(grid, cell, other):
    """Whether ``(x, y)`` or ``(y, x)`` lies in the cell pair ``(cell, other)``."""
    lo, hi = grid.edges[cell : cell + 2].tolist()
    lo2, hi2 = grid.edges[other : other + 2].tolist()
    return lambda x, y: (
        (lo < x) & (x < hi) & (lo2 < y) & (y < hi2) | (lo < y) & (y < hi) & (lo2 < x) & (x < hi2)
    )


def _custom_kernel(kernel_id, grid):
    third = 1.0 / 3.0
    edge = grid.edges[-2]  # the bump covers the last cell pair only
    half = float(grid.edges[grid.cells // 2])
    inside = _cell_pair(grid, grid.cells // 3, grid.cells // 2)
    fn = {
        "sum": lambda x, y: x + y,
        "brownian": lambda x, y: (x**third + y**third) * (x**-third + y**-third),
        "free-molecular": lambda x, y: (x**third + y**third) ** 2 * np.sqrt(1 / x + 1 / y),
        "diff-sedimentation": lambda x, y: (
            (x**third + y**third) ** 2 * abs(x ** (2 * third) - y ** (2 * third))
        ),
        "product-bump": lambda x, y: x * y + np.where(np.minimum(x, y) > edge, 1.0, 0.0),
        "step": lambda x, y: 1.0 + np.where(np.minimum(x, y) > half, 1.0, 0.0),
        "mid-bump": lambda x, y: x * y + np.where(inside(x, y), 1.0, 0.0),
    }[kernel_id]
    return CustomKernel(fn)


def _grid(rmax, cells, scheme):
    return build_grid(rmax, cells, scheme, eps_min=1e-3 if scheme == "geometric" else None)


# ex3 (discrete fragments) is left out on purpose: the finite volumes drop each
# fragment whole into one cell while the series interpolate the parent density.
# For the projected initial data at 200 cells the two right-hand sides differ by
# 17 % (uniform) and 2.3 % (geometric) of max |rhs|.  The ROADMAP item
# "Discrete fragments: a moment-conserving FVM birth map" gives both one rule.
@pytest.mark.parametrize("case_id", ["ex1", "ex2"])
@pytest.mark.parametrize("scheme", ["uniform", "geometric"])
def test_fvm_and_series_share_the_mass_uniform_operator(case_id, scheme):
    case = registry_case(case_id)
    grid = _grid(case.rmax, 200, scheme)
    f = project_initial(case.init, grid).values
    fvm = CollisionOperator(precompute_weights(grid, case.breakage), case.kernel).rhs(f)
    op = CollisionOperator(birth_map(grid, case.breakage, interpolated=True), case.kernel)
    series = op.birth(f, f) - op.death(f, f)
    assert np.max(np.abs(fvm - series)) <= 1e-13 * np.max(np.abs(fvm))


@pytest.mark.parametrize("law", LAWS, ids=["mass-uniform", "fragments"])
def test_dense_custom_kernel_matches_rank_one_product_kernel(law, rng):
    grid = build_grid(10.0, 40)
    rank_one, dense = ProductKernel(1.0), CustomKernel(lambda x, y: x * y)
    f = rng.uniform(0.0, 1.0, grid.cells)
    h = rng.uniform(0.0, 1.0, grid.cells)
    fvm = [CollisionOperator(precompute_weights(grid, law), k) for k in (rank_one, dense)]
    series = [CollisionOperator(birth_map(grid, law, interpolated=True), k) for k in (rank_one, dense)]
    pairs = [
        (fvm[0].rhs(f), fvm[1].rhs(f)),
        (series[0].birth(f, h), series[1].birth(f, h)),
        (series[0].death(f, h), series[1].death(f, h)),
    ]
    for fast, slow in pairs:
        scale = np.max(np.abs(fast))
        assert np.max(np.abs(fast - slow)) <= 1e-13 * scale


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


@pytest.mark.parametrize(
    "law, kernel_id",
    [
        pytest.param(law, kernel_id, id=law_id if kernel_id == "sum" else f"{law_id}-{kernel_id}")
        for law, law_id in zip(LAWS, LAW_IDS)
        for kernel_id in KERNEL_IDS
    ],
)
def test_non_separable_custom_kernel_matches_brute_force(law, kernel_id, rng):
    grid = build_grid(6.0, 12)
    kernel = _custom_kernel(kernel_id, grid)
    weights = precompute_weights(grid, law)
    f = rng.uniform(0.0, 1.0, grid.cells)
    fast = CollisionOperator(weights, kernel).rhs(f)
    slow = brute_force_rhs(grid, law, kernel, f)
    assert fast == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_factored_custom_kernel_matches_dense_table(law, kernel_id, rng):
    # the reference applies K(x, m_l) w_l as a dense table; for the fragments
    # law the series sites stack the interpolated parents over the midpoints
    grid = build_grid(6.0, 200)
    kernel = _custom_kernel(kernel_id, grid)
    f, h = (rng.uniform(0.0, 1.0, grid.cells) for _ in range(2))
    p, q = rng.uniform(0.0, 1.0, (2, 3, grid.cells))  # time coefficients, t^0 .. t^2
    mid = grid.midpoints
    fvm_weights, series = precompute_weights(grid, law), birth_map(grid, law, interpolated=True)

    def rates(h, x):
        return h @ (kernel_matrix(kernel, x, mid) * grid.widths).T

    def dense_rhs(weights, g, h):
        return weights(weights.sample(g) * rates(h, weights.sites)), g * rates(h, mid)

    def dense_collide(weights, p, q):
        gain = weights(cauchy_product(weights.sample(p), rates(q, weights.sites)))
        return gain - cauchy_product(p, rates(q, mid))

    cell_birth, cell_death = dense_rhs(fvm_weights, f, f)
    birth, death = dense_rhs(series, f, h)
    series_op = CollisionOperator(series, kernel)
    pairs = [
        (CollisionOperator(fvm_weights, kernel).rhs(f), cell_birth - cell_death),
        (series_op.birth(f, h), birth),
        (series_op.death(f, h), death),
        (series_op.collide(p, q), dense_collide(series, p, q)),
    ]
    for fast, ref in pairs:
        assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kernel_id", ["product", "mid-bump"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_collide_is_a_parent_pass_times_partner_rates(law, kernel_id, rng):
    # one pass over the parents serves every partner, bit for bit
    grid = build_grid(6.0, 60)
    kernel = ProductKernel(1.0) if kernel_id == "product" else _custom_kernel(kernel_id, grid)
    op = CollisionOperator(birth_map(grid, law, interpolated=True), kernel)
    p = rng.uniform(0.0, 1.0, (3, grid.cells))
    passes = op.parent_pass(p)
    for rows in (1, 2, 4):
        q = rng.uniform(0.0, 1.0, (rows, grid.cells))
        assert CollisionOperator.product(passes, op.partner_rates(q)).tobytes() == op.collide(p, q).tobytes()


@pytest.mark.parametrize("cells", [40, 300, 4000])
@pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3", "ex1-rank2"])
def test_partner_rates_do_not_depend_on_the_row_count(case_id, cells, rng):
    # a row's rates are the same doubles alone and inside a zero-padded array,
    # so a one-row Taylor term reads what its padded time polynomial would
    case = registry_case(case_id.split("-")[0])
    kernel = CustomKernel(lambda x, y: x + y) if case_id.endswith("rank2") else case.kernel
    grid = build_grid(case.rmax, cells)
    op = CollisionOperator(birth_map(grid, case.breakage, interpolated=True), kernel)
    row = rng.uniform(0.0, 1.0, (1, cells))
    assert len(op.partner_rates(row)) == (2 if case_id.endswith("rank2") else 1)
    for j in (1, 3, 7):
        padded = np.zeros((j + 1, cells))
        padded[j] = row[0]
        for alone, inside in zip(op.partner_rates(row), op.partner_rates(padded)):
            assert alone.tobytes() == inside[j:].tobytes(), j


@pytest.mark.parametrize("interpolated", [False, True], ids=["cell-rule", "interpolated"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_rhs_is_birth_minus_death_bit_for_bit(law, interpolated, rng):
    # rhs reads the rate once when the birth sites are the midpoints
    grid = build_grid(6.0, 60)
    op = CollisionOperator(birth_map(grid, law, interpolated), CustomKernel(lambda x, y: x + y))
    f = rng.uniform(0.0, 1.0, grid.cells)
    assert op.rhs(f).tobytes() == (op.birth(f, f) - op.death(f, f)).tobytes()


@pytest.mark.parametrize(
    "kernel_id, rank",
    [("sum", 2), ("step", 2), ("mid-bump", 3), ("diff-sedimentation", 300), ("min", 300)],
)
def test_custom_kernel_factors_reproduce_the_table(kernel_id, rank):
    # full-rank kernels take one cross per column; the rows repeat sizes as
    # the stacked series sites do
    grid = build_grid(10.0, 300)
    kernel = CustomKernel(np.minimum) if kernel_id == "min" else _custom_kernel(kernel_id, grid)
    x, y = np.concatenate([0.5 * grid.midpoints, grid.midpoints]), grid.midpoints
    a, b = kernel_factors(kernel, x, y)
    table = kernel_matrix(kernel, x, y)
    assert a.shape == (rank, x.size) and b.shape == (rank, y.size)
    assert np.max(np.abs(a.T @ b - table)) <= 1e-14 * np.max(np.abs(table))


def test_custom_kernel_reads_each_rate_once():
    grid = build_grid(10.0, 60)
    x, y = np.concatenate([0.5 * grid.midpoints, grid.midpoints]), grid.midpoints
    calls = []

    def read(p, q):
        calls.extend(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(p, q))))
        return p + q

    kernel_factors(CustomKernel(read), x, y)
    assert sorted(calls) == sorted((p, q) for p in x.tolist() for q in y.tolist())


@pytest.mark.parametrize(
    "fn",
    [
        lambda x, y: 2.0 if x + y > 1.0 else 1.0,
        lambda x, y: math.sqrt(x * y),
        lambda x, y: np.ravel(x * y),
    ],
    ids=["python-if", "math-sqrt", "wrong-shape"],
)
def test_per_value_custom_kernel_is_refused(fn):
    # the rates are read a column or a row at a time, in one call each
    case = replace(registry_case("ex1"), kernel=CustomKernel(fn))
    grid = build_grid(case.rmax, 40)
    x = grid.midpoints
    with pytest.raises(DomainError, match="np.where.*np.vectorize"):
        kernel_factors(case.kernel, x, x)
    with pytest.raises(DomainError, match="np.where.*np.vectorize"):
        integrate(case, grid, (0.0, case.tend))


def test_vectorized_per_value_kernel_reads_the_same_table():
    x = build_grid(10.0, 40).midpoints
    per_value = CustomKernel(np.vectorize(lambda p, q: math.sqrt(p * q) if p < q else q))
    array = CustomKernel(lambda p, q: np.where(p < q, np.sqrt(p * q), q))
    assert np.array_equal(kernel_matrix(per_value, x, x), kernel_matrix(array, x, x))
    assert np.array_equal(kernel_factors(per_value, x, x), kernel_factors(array, x, x))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "where, rate",
    [
        (lambda grid: lambda x, y: np.minimum(x, y) > grid.edges[grid.cells // 2], lambda x, y: 1.0),
        (lambda grid: _cell_pair(grid, grid.cells // 3, grid.cells // 2), lambda x, y: 1.0),
        (lambda grid: lambda x, y: np.minimum(x, y) > grid.edges[-2], lambda x, y: x * y),
    ],
    ids=["block", "cell-pair", "last-cell-pair"],
)
def test_non_finite_rate_off_the_pivots_diverges(where, rate, bad):
    # the rate is finite in the first column; the last cell pair is read only
    # through the row the first pivot picks, the largest size for x * y
    case = registry_case("ex1")
    grid = build_grid(case.rmax, 40)
    off = where(grid)
    case = replace(case, kernel=CustomKernel(lambda x, y: np.where(off(x, y), bad, rate(x, y))))
    with pytest.raises(DivergenceError):
        integrate(case, grid, (0.0, case.tend))
    with pytest.raises(DivergenceError):
        ahpm_terms(case, grid, 3)


@pytest.mark.parametrize(
    "kernel",
    [ConstantKernel(0.0), ProductKernel(0.0), CustomKernel(lambda x, y: 0.0)],
    ids=["constant", "product", "custom"],
)
@pytest.mark.parametrize("case_id", ["ex1", "ex3"])
def test_zero_kernel_leaves_the_initial_data(case_id, kernel):
    case = replace(registry_case(case_id), kernel=kernel)
    grid = build_grid(case.rmax, 50)
    f0 = project_initial(case.init, grid).values
    solution = integrate(case, grid, (0.0, 0.5 * case.tend, case.tend))
    assert all(np.array_equal(snap.values, f0) for snap in solution.snapshots)
    series = ahpm_terms(case, grid, 3)
    assert all(np.all(term.coeffs == 0.0) for term in series.terms[1:])


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "case_id, kernel",
    [("ex1", None), ("ex3", None), ("ex1", CustomKernel(lambda x, y: x + y))],
    ids=["ex1", "ex3", "ex1-custom-sum"],
)
def test_no_dense_tables(case_id, kernel):
    # a dense N x N float table alone would need 8 * N * N bytes
    case = registry_case(case_id)
    if kernel is not None:
        case = replace(case, kernel=kernel)
    cells = 2000
    row = 8 * cells
    peak = _peak_bytes(integrate, case, build_grid(case.rmax, cells), (0.0, case.tend))
    assert peak < 100 * row
    peak = _peak_bytes(ahpm_terms, case, build_grid(case.rmax, cells), 5)
    assert peak < 400 * row
