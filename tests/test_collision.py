import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import reduce

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


def _collide_rows(operator, g, h):
    """Gain minus loss of one parent row ``g`` against one partner row ``h``."""
    return operator.collide(g[None], h[None])[0]


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
    fvm = _collide_rows(CollisionOperator(precompute_weights(grid, case.breakage), case.kernel), f, f)
    op = CollisionOperator(birth_map(grid, case.breakage, interpolated=True), case.kernel)
    series = _collide_rows(op, f, f)
    assert np.max(np.abs(fvm - series)) <= 1e-13 * np.max(np.abs(fvm))


@pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
@pytest.mark.parametrize("scheme", ["uniform", "geometric"])
def test_first_taylor_row_is_the_rhs(case_id, scheme):
    # the FVM steps by the Taylor rows of the cell-rule operator; row 1 is its time derivative
    case = registry_case(case_id)
    grid = _grid(case.rmax, 300, scheme)
    operator = CollisionOperator(precompute_weights(grid, case.breakage), case.kernel)
    f0 = project_initial(case.init, grid).values
    row = operator.taylor_rows(f0, 3)[1]
    assert row.tobytes() == _collide_rows(operator, f0, f0).tobytes()


def _loop_taylor_rows(operator, f0, order):
    """The Taylor recursion as a loop over k and rank, one ``conv += p * sigma`` per
    pair: the reference that the ordered reduction of ``taylor_rows`` must match."""
    rows, passes, rates = np.zeros((order + 1, f0.size)), [], []
    rows[0] = f0
    for m in range(order):
        passes.append(operator.parent_pass(rows[m]))
        rates.append(operator.partner_rates(rows[m]))
        conv = np.zeros(f0.size)
        for k in range(m + 1):
            for p, sigma in zip(passes[k], rates[m - k]):
                conv += p * sigma
        rows[m + 1] = conv * (1.0 / (m + 1))
    return rows


# kernel id -> its rank on a grid of many cells; np.minimum has full rank
TAYLOR_KERNEL_RANKS = {"product": 1, "constant": 1, "sum": 2, "brownian": 3, "min": None}


@pytest.mark.parametrize(
    "kernel_id, cells",
    [
        (kernel_id, cells)
        for kernel_id, rank in TAYLOR_KERNEL_RANKS.items()
        for cells in (2, 3, 60) + ((4000,) if rank in (1, 2) else ())
    ],
)
@pytest.mark.parametrize("interpolated", [False, True], ids=["cell", "interpolated"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_taylor_rows_match_the_loop_bit_for_bit(law, interpolated, kernel_id, cells, rng):
    # one reduction over (k, rank) adds in the loop's order, k first and rank second
    grid = build_grid(6.0, cells)
    kernel = {
        "product": ProductKernel(1.0),
        "constant": ConstantKernel(1.0),
        "min": CustomKernel(np.minimum),
    }.get(kernel_id) or _custom_kernel(kernel_id, grid)
    op = CollisionOperator(birth_map(grid, law, interpolated=interpolated), kernel)
    f0 = rng.uniform(0.0, 1.0, cells)
    f0[::3] = -0.0
    f0[1::5] = 0.0
    f0[-1] = 0.0  # a zero top cell can give a zero pass, -0.0 against the negated f0's rates
    rank = TAYLOR_KERNEL_RANKS[kernel_id] or cells
    assert op.partner_rates(f0).shape[-2] == min(rank, cells)
    for sign, order in itertools.product((1.0, -1.0), (0, 1, 5, 12)):
        with np.errstate(over="ignore", invalid="ignore"):
            rows = op.taylor_rows(sign * f0, order)
            ref = _loop_taylor_rows(op, sign * f0, order)
        assert rows.tobytes() == ref.tobytes(), (sign, order)


@pytest.mark.parametrize("law", LAWS, ids=["mass-uniform", "fragments"])
def test_dense_custom_kernel_matches_rank_one_product_kernel(law, rng):
    grid = build_grid(10.0, 40)
    rank_one, dense = ProductKernel(1.0), CustomKernel(lambda x, y: x * y)
    f = rng.uniform(0.0, 1.0, grid.cells)
    h = rng.uniform(0.0, 1.0, grid.cells)
    fvm = [CollisionOperator(precompute_weights(grid, law), k) for k in (rank_one, dense)]
    series = [CollisionOperator(birth_map(grid, law, interpolated=True), k) for k in (rank_one, dense)]
    pairs = [
        (_collide_rows(fvm[0], f, f), _collide_rows(fvm[1], f, f)),
        (_collide_rows(series[0], f, h), _collide_rows(series[1], f, h)),
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
    fast = CollisionOperator(weights, kernel).taylor_rows(f, 1)[1]
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
        (_collide_rows(CollisionOperator(fvm_weights, kernel), f, f), cell_birth - cell_death),
        (_collide_rows(series_op, f, h), birth - death),
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
        rates = op.partner_rates(q)
        ranks = range(passes.shape[-2])
        products = (cauchy_product(passes[..., k, :], rates[..., k, :]) for k in ranks)
        assert reduce(np.add, products).tobytes() == op.collide(p, q).tobytes()


@pytest.mark.parametrize("kernel_id, rank", [("sum", 2), ("brownian", 3), ("min", 60)])
@pytest.mark.parametrize("interpolated", [False, True], ids=["cell", "interpolated"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_collide_sums_the_ranks_in_order(law, interpolated, kernel_id, rank, rng):
    # the rank axis is summed first to last, the doubles of a rank-by-rank sum;
    # np.minimum has full rank, long enough that a pairwise sum would round differently
    grid = build_grid(6.0, 60)
    kernel = CustomKernel(np.minimum) if kernel_id == "min" else _custom_kernel(kernel_id, grid)
    op = CollisionOperator(birth_map(grid, law, interpolated=interpolated), kernel)
    p = rng.uniform(-1.0, 1.0, (3, grid.cells))
    p[:, ::7] = -0.0
    q = rng.uniform(0.0, 1.0, (2, grid.cells))
    passes, rates = op.parent_pass(p), op.partner_rates(q)
    assert passes.shape == (3, rank, grid.cells) and rates.shape == (2, rank, 1)
    by_rank = reduce(
        np.add, (cauchy_product(passes[..., k, :], rates[..., k, :]) for k in range(rank))
    )
    assert op.collide(p, q).tobytes() == by_rank.tobytes()


@pytest.mark.parametrize(
    "kernel_id, rank", [("product", 1), ("sum", 2), ("brownian", 3)], ids=["product", "sum", "brownian"]
)
@pytest.mark.parametrize("interpolated", [False, True], ids=["cell", "interpolated"])
@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_collide_broadcasts_over_stacked_pairs(law, interpolated, kernel_id, rank, rng):
    # collide broadcasts over stacked parent and partner axes; each pair of
    # the stacked call must hold the doubles of its own collide
    grid = build_grid(6.0, 60)
    kernel = ProductKernel(1.0) if kernel_id == "product" else _custom_kernel(kernel_id, grid)
    op = CollisionOperator(birth_map(grid, law, interpolated=interpolated), kernel)
    p = rng.uniform(0.0, 1.0, (3, 4, grid.cells))  # axes (time row, pair, cell)
    q = rng.uniform(0.0, 1.0, (2, 5, grid.cells))
    assert op.partner_rates(q).shape[-2] == rank
    stacked = op.collide(p[:, :, None], q[:, None, :])
    assert stacked.shape == (4, 4, 5, grid.cells)
    for i, j in itertools.product(range(4), range(5)):
        assert stacked[:, i, j].tobytes() == op.collide(p[:, i], q[:, j]).tobytes(), (i, j)


@pytest.mark.parametrize("cells", [40, 300, 4000])
@pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3", "ex1-rank2"])
def test_partner_rates_do_not_depend_on_the_row_count(case_id, cells, rng):
    # a row's rates are the same doubles alone, as the 1-D row taylor_rows
    # passes, and inside a zero-padded array, so a one-row Taylor term reads
    # what its padded time polynomial would
    case = registry_case(case_id.split("-")[0])
    kernel = CustomKernel(lambda x, y: x + y) if case_id.endswith("rank2") else case.kernel
    grid = build_grid(case.rmax, cells)
    op = CollisionOperator(birth_map(grid, case.breakage, interpolated=True), kernel)
    row = rng.uniform(0.0, 1.0, (1, cells))
    alone = op.partner_rates(row)
    assert alone.shape[-2] == (2 if case_id.endswith("rank2") else 1)
    assert op.partner_rates(row[0]).tobytes() == alone.tobytes()
    for j in (1, 3, 7):
        padded = np.zeros((j + 1, cells))
        padded[j] = row[0]
        inside = op.partner_rates(padded)
        for k in range(alone.shape[-2]):
            assert alone[..., k, :].tobytes() == inside[j:, k, :].tobytes(), (j, k)


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
