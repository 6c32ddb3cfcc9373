import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbelab import (
    CaseSpec,
    CustomIC,
    CustomKernel,
    DomainError,
    GridFunction,
    GridMismatchError,
    MassUniformBreakage,
    NoOracleError,
    NumericalError,
    ProductKernel,
    SeriesSolution,
    TimePoly,
    UnknownCaseError,
    ahpm_terms,
    averaged_residual,
    build_grid,
    ham_terms,
    l1_distance,
    l1_norm,
    optimize_alpha,
    oracle_table,
    oracle_terms,
    project_initial,
    registry_case,
    residual,
    taylor_term,
    truncated_sum,
)
from cbelab.collision import CollisionOperator, birth_map, cauchy_product
from cbelab.series import _poly_antider, _poly_eval, _poly_sum

# oracle comparisons run on a wide domain so truncation error stays below the
# quadrature error of the midpoint rule
ORACLE_RMAX = 20.0
ORACLE_CELLS = 1000


def rel_l1(num, ref):
    return l1_distance(num, ref) / l1_norm(ref)


def case_grid(case_id, scheme, cells):
    case = registry_case(case_id)
    eps_min = case.rmax * 1e-3 if scheme == "geometric" else None
    return case, build_grid(case.rmax, cells, scheme, eps_min)


def padded(coeffs, rows):
    out = np.zeros((rows, coeffs.shape[1]))
    out[: coeffs.shape[0]] = coeffs
    return out


def monomial(row, power):
    """The time polynomial ``row * t**power`` as a zero-padded coefficient array."""
    out = np.zeros((power + 1, row.size))
    out[power] = row
    return out


class TestTimePoly:
    def test_trailing_zero_rows_trimmed(self):
        grid = build_grid(1.0, 4)
        coeffs = np.zeros((5, 4))
        coeffs[1] = 1.0
        p = TimePoly(grid, coeffs)
        assert p.degree == 1

    def test_eval_matches_polyval(self, rng):
        grid = build_grid(1.0, 6)
        coeffs = rng.normal(size=(4, 6))
        p = TimePoly(grid, coeffs)
        for t in (0.0, 0.3, 1.7):
            direct = np.polynomial.polynomial.polyval(t, coeffs)
            assert p.eval(t).values == pytest.approx(direct)

    def test_coefficient_access(self, rng):
        grid = build_grid(1.0, 3)
        coeffs = rng.normal(size=(3, 3))
        p = TimePoly(grid, coeffs)
        assert p.coefficient(2).values == pytest.approx(coeffs[2])
        with pytest.raises(DomainError):
            p.coefficient(3)

    def test_rows_must_match_the_grid(self):
        with pytest.raises(DomainError, match="coefficient rows must have 4 entries"):
            TimePoly(build_grid(1.0, 4), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_coefficients_must_be_finite(self, bad):
        coeffs = np.zeros((2, 4))
        coeffs[1, 2] = bad
        with pytest.raises(DomainError, match="coefficients must be finite"):
            TimePoly(build_grid(1.0, 4), coeffs)


class TestPolyOps:
    def test_sum_pads_ragged_rows_into_a_new_array(self, rng):
        arrays = [rng.normal(size=(rows, 5)) for rows in (1, 3, 6)]
        out = _poly_sum(arrays)
        expected = padded(arrays[0], 6) + padded(arrays[1], 6) + padded(arrays[2], 6)
        assert out.tobytes() == expected.tobytes()
        assert not any(np.shares_memory(out, a) for a in arrays)
        single = _poly_sum(arrays[2:])
        assert single.tobytes() == arrays[2].tobytes()
        assert not np.shares_memory(single, arrays[2])

    def test_mul_identity(self, rng):
        q = rng.normal(size=(3, 5))
        out = cauchy_product(np.ones((1, 5)), q)
        assert out == pytest.approx(q)

    def test_monomial_product(self):
        grid = build_grid(1.0, 2)
        a = np.array([[0.0, 0.0], [2.0, 3.0]])
        b = np.array([[0.0, 0.0], [5.0, 7.0]])
        out = TimePoly(grid, cauchy_product(a, b))
        assert out.degree == 2
        assert out.coeffs[2] == pytest.approx([10.0, 21.0])

    def test_mul_against_pointwise_evaluation(self, rng):
        grid = build_grid(2.0, 4)
        p = TimePoly(grid, rng.normal(size=(3, 4)))
        q = TimePoly(grid, rng.normal(size=(4, 4)))
        out = TimePoly(grid, cauchy_product(p.coeffs, q.coeffs))
        for t in np.linspace(0.0, 1.5, 7):
            assert out.eval(t).values == pytest.approx(
                p.eval(t).values * q.eval(t).values
            )

    def test_antiderivative_of_constant(self):
        out = _poly_antider(np.array([[3.0, 4.0]]))
        assert out == pytest.approx(np.array([[0.0, 0.0], [3.0, 4.0]]))

    def test_antiderivative_of_linear(self):
        out = _poly_antider(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert out[2] == pytest.approx([1.5, 2.0])

    def test_antiderivative_inverts_differentiation(self, rng):
        grid = build_grid(1.0, 3)
        p = TimePoly(grid, rng.normal(size=(4, 3)))
        anti = TimePoly(grid, _poly_antider(p.coeffs))
        h = 1e-6
        for t in (0.2, 0.9):
            derivative = (anti.eval(t + h).values - anti.eval(t - h).values) / (2 * h)
            assert derivative == pytest.approx(p.eval(t).values, rel=1e-7, abs=1e-7)


def series_operator(case, grid):
    """The interpolated collision operator the series methods apply."""
    return CollisionOperator(birth_map(grid, case.breakage, interpolated=True), case.kernel)


class TestCollisionOperators:
    def test_death_of_zero_partner(self, ex1):
        grid = build_grid(ex1.rmax, 32)
        f0 = project_initial(ex1.init, grid).values
        assert np.all(series_operator(ex1, grid).death(f0, np.zeros(32)) == 0.0)

    def test_death_product_kernel_closed_form(self, ex1):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex1.init, grid).values
        out = GridFunction(grid, series_operator(ex1, grid).death(f0, f0))
        mass = 1.0 - 21.0 * math.exp(-20.0)
        expected = grid.midpoints * np.exp(-grid.midpoints) * mass
        assert rel_l1(out, GridFunction(grid, expected)) < 1e-3

    def test_death_constant_kernel_closed_form(self, ex3):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex3.init, grid).values
        out = GridFunction(grid, series_operator(ex3, grid).death(f0, f0))
        number = 1.0 - math.exp(-20.0)
        expected = np.exp(-grid.midpoints) * number
        assert rel_l1(out, GridFunction(grid, expected)) < 1e-3

    def test_birth_of_zero_parents(self, ex1):
        grid = build_grid(ex1.rmax, 32)
        f0 = project_initial(ex1.init, grid).values
        assert np.all(series_operator(ex1, grid).birth(np.zeros(32), f0) == 0.0)

    def test_birth_mass_uniform_closed_form(self, ex1):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex1.init, grid).values
        out = GridFunction(grid, series_operator(ex1, grid).birth(f0, f0))
        expected = 2.0 * np.exp(-grid.midpoints)
        assert rel_l1(out, GridFunction(grid, expected)) < 1e-3

    def test_birth_discrete_fragments_closed_form(self, ex3):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex3.init, grid).values
        out = GridFunction(grid, series_operator(ex3, grid).birth(f0, f0))
        x = grid.midpoints
        expected = 2.5 * np.exp(-2.5 * x) + (5.0 / 3.0) * np.exp(-(5.0 / 3.0) * x)
        assert rel_l1(out, GridFunction(grid, expected)) < 1e-3


class TestHamSeries:
    def test_alpha_domain(self, ex1):
        grid = build_grid(ex1.rmax, 16)
        for alpha in (-1.000001, 0.0, 0.5):
            with pytest.raises(DomainError):
                ham_terms(ex1, grid, 1, alpha)
        ham_terms(ex1, grid, 1, -1.0)  # closed lower endpoint is admissible

    def test_zeroth_term_is_projection(self, ex1):
        grid = build_grid(ex1.rmax, 32)
        series = ham_terms(ex1, grid, 2, -0.8)
        assert np.array_equal(
            series.terms[0].eval(0.7).values, project_initial(ex1.init, grid).values
        )

    def test_first_correction_ex1(self, ex1):
        grid = build_grid(ORACLE_RMAX, ORACLE_CELLS)
        series = ham_terms(ex1, grid, 1, ex1.reference_alpha)
        reference = oracle_terms("ex1", "ham", 1, grid, alpha=ex1.reference_alpha)
        assert rel_l1(series.terms[1].eval(1.0), reference.eval(1.0)) <= 1e-3

    def test_first_correction_ex2(self, ex2):
        grid = build_grid(ORACLE_RMAX, ORACLE_CELLS)
        series = ham_terms(ex2, grid, 1, ex2.reference_alpha)
        reference = oracle_terms("ex2", "ham", 1, grid, alpha=ex2.reference_alpha)
        assert rel_l1(series.terms[1].eval(1.0), reference.eval(1.0)) <= 1e-3

    def test_collapse_to_plain_homotopy_at_minus_one(self, ex1):
        grid = build_grid(ex1.rmax, 64)
        ham = ham_terms(ex1, grid, 1, -1.0)
        ahpm = ahpm_terms(ex1, grid, 1)
        assert ham.terms[1].coeffs == pytest.approx(ahpm.terms[1].coeffs, abs=1e-14)

    def test_degree_bound(self, ex2):
        grid = build_grid(ex2.rmax, 48)
        series = ham_terms(ex2, grid, 5, -0.9)
        for m, term in enumerate(series.terms):
            assert term.degree <= m


class TestAhpmSeries:
    def test_first_two_terms_ex1(self, ex1):
        grid = build_grid(ORACLE_RMAX, ORACLE_CELLS)
        series = ahpm_terms(ex1, grid, 2)
        for m in (1, 2):
            reference = oracle_terms("ex1", "ahpm", m, grid)
            assert rel_l1(series.terms[m].eval(1.0), reference.eval(1.0)) <= 1e-3

    def test_taylor_identity_spot_check(self, ex1):
        grid = build_grid(ORACLE_RMAX, 500)
        series = ahpm_terms(ex1, grid, 2)
        reference = taylor_term("ex1", 2, grid)
        assert rel_l1(series.terms[2].eval(1.0), reference.eval(1.0)) <= 2e-3

    def test_higher_time_powers_are_retained(self, ex1):
        # products of partial sums push the polynomial degree above the order
        grid = build_grid(ex1.rmax, 32)
        series = ahpm_terms(ex1, grid, 3)
        assert series.terms[3].degree > 3

    def test_order_convergence_toward_exact(self, ex1):
        grid = build_grid(ORACLE_RMAX, 800)
        exact = type(project_initial(ex1.init, grid))(
            grid, 2.25 * np.exp(-1.5 * grid.midpoints)
        )
        result = optimize_alpha(ex1, build_grid(ex1.rmax, 150), 5)
        for series in (
            ahpm_terms(ex1, grid, 5),
            ham_terms(ex1, grid, 5, result.alpha),
        ):
            distances = [
                l1_distance(truncated_sum(series, m, 0.5), exact) for m in range(1, 6)
            ]
            assert all(a > b for a, b in zip(distances, distances[1:]))


def alpha_recursion(case, grid, order, alpha):
    """HAM terms 0 .. order straight from the deformation equation at ``alpha``:
    term m is ``alpha`` times the antiderivative of ``-sum_k C(f_k, f_{m-1-k})``
    plus ``(1 + alpha) f_{m-1}`` for m > 1.  The reference for ``ham_terms``,
    which mixes the alpha = -1 terms instead.
    """
    ops = series_operator(case, grid)
    terms = [np.atleast_2d(project_initial(case.init, grid).values)]
    for m in range(1, order + 1):
        conv = -sum(ops.collide(terms[k], terms[m - 1 - k]) for k in range(m))
        fm = alpha * _poly_antider(conv)
        if m > 1:
            fm += (1.0 + alpha) * padded(terms[m - 1], m + 1)
        terms.append(fm)
    return terms


def plain_sample(coeffs, grid, nodes):
    """A time polynomial at the collocation nodes, interpolated from its values on every cell."""
    times, sizes = nodes
    return np.array([np.interp(sizes, grid.midpoints, row) for row in _poly_eval(coeffs, times)])


# rank 2: 1 + xy + x/10 + y/10 = (x + 1/10)(y + 1/10) + 99/100
RANK2 = CustomKernel(lambda x, y: 1 + x * y + 0.1 * (x + y))


def table_case_grid(case_id, scheme, cells):
    case, grid = case_grid(case_id.split("-")[0], scheme, cells)
    return (replace(case, kernel=RANK2) if case_id.endswith("-rank2") else case), grid


class TestHamAlphaStructure:
    @pytest.mark.parametrize("scheme", ["uniform", "geometric"])
    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
    def test_terms_are_binomial_mixtures_of_hpm_terms(self, case_id, scheme):
        # with L = d/dt and H = 1 the deformation equation makes term m a fixed
        # combination of the alpha = -1 (plain HPM) terms g_j:
        # sum_j (-alpha)^j C(m-1, j-1) (1+alpha)^(m-j) g_j
        for cells in (40, 300):
            case, grid = case_grid(case_id, scheme, cells)
            for alpha in (-1.0, -0.969, -0.826, -0.5, -0.01):
                expected = alpha_recursion(case, grid, 7, alpha)
                for order in (3, 5, 7):
                    terms = ham_terms(case, grid, order, alpha).terms
                    for m, term in enumerate(terms):
                        scale = np.max(np.abs(expected[m]))
                        error = np.abs(padded(term.coeffs, m + 1) - padded(expected[m], m + 1))
                        assert np.max(error) <= 1e-14 * scale, (cells, alpha, order, m)

    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3", "ex1-rank2", "ex3-rank2"])
    def test_alpha_table_matches_plain_collide(self, case_id):
        # the table takes each term's parent pass once, stacks every product and
        # reads only the cells np.interp reads; it must hold exactly what one
        # collide per pair of zero-padded monomials sampled on the whole grid
        # gives, or the fit and alpha* move
        from cbelab.series import _alpha_table, _collocation, _hpm_build

        for scheme, cells, order in itertools.product(("uniform", "geometric"), (2, 3, 7, 120), (1, 3, 5, 7)):
            case, grid = table_case_grid(case_id, scheme, cells)
            linear, quadratic = _alpha_table(case, grid, order)
            rows = _hpm_build(grid, case.kernel, case.breakage, case.init, order)[0]
            hpm = [monomial(row, j) for j, row in enumerate(rows)]
            ops, nodes = series_operator(case, grid), _collocation(case, order)
            expected = np.array(
                [[plain_sample(_poly_antider(ops.collide(p, q)), grid, nodes).ravel() for q in hpm] for p in hpm]
            )
            assert quadratic.tobytes() == expected.tobytes(), (scheme, cells, order)
            linear_expected = np.array([plain_sample(g, grid, nodes).ravel() for g in hpm[1:]])
            assert linear.tobytes() == linear_expected.tobytes(), (scheme, cells, order)

    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
    def test_hpm_terms_are_single_taylor_rows(self, case_id):
        # at alpha = -1 the recursion makes term j the monomial c_j t**j; the
        # build keeps c_j alone, the same doubles as the zero-padded term
        from cbelab.series import _hpm_build

        case, grid = case_grid(case_id, "uniform", 300)
        rows = _hpm_build(grid, case.kernel, case.breakage, case.init, 7)[0]
        for j, term in enumerate(alpha_recursion(case, grid, 7, -1.0)):
            assert term.shape == (j + 1, grid.cells)
            assert rows[j].tobytes() == term[j].tobytes(), j
            assert not term[:j].any(), j

    def test_one_build_serves_every_alpha(self, ex1):
        from cbelab.series import _hpm_build

        grid = build_grid(ex1.rmax, 40)
        _hpm_build.cache_clear()
        for alpha in (-1.0, -0.8, -0.3):
            ham_terms(ex1, grid, 4, alpha)
        assert _hpm_build.cache_info().misses == 1
        ham_terms(ex1, grid, 3, -0.8)
        # one entry: a new order replaces the build
        assert _hpm_build.cache_info().maxsize == 1
        assert _hpm_build.cache_info().currsize == 1

    def test_non_finite_hpm_term_is_a_numerical_failure(self):
        huge = CaseSpec(
            id="huge", kernel=ProductKernel(1.0), breakage=MassUniformBreakage(),
            init=CustomIC(lambda x: 1e200 * np.exp(-x)), rmax=10.0, tend=1.0,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match="ham term 1 has non-finite values"
        ):
            ham_terms(huge, build_grid(huge.rmax, 20), 3, -0.8)


class TestTruncatedSum:
    def test_small_sizes_track_the_exact_solution(self, ex1):
        # the fifth-order sum is accurate for small particles at the final
        # time and loses accuracy toward the tail
        grid = build_grid(ex1.rmax, 400)
        series = ahpm_terms(ex1, grid, 5)
        values = truncated_sum(series, 5, 1.0).values
        exact = 4.0 * np.exp(-2.0 * grid.midpoints)
        small = grid.midpoints <= 1.0
        rel = np.abs(values[small] - exact[small]) / exact[small]
        assert float(np.max(rel)) <= 5e-2
        tail = np.abs(values[-1] - exact[-1]) / exact[-1]
        assert tail > 5e-2

    def test_order_zero_is_initial_condition(self, ex1):
        grid = build_grid(ex1.rmax, 40)
        series = ahpm_terms(ex1, grid, 3)
        projected = project_initial(ex1.init, grid)
        for t in (0.0, 0.5, 1.0):
            assert np.array_equal(
                truncated_sum(series, 0, t).values, projected.values
            )

    def test_order_out_of_range(self, ex1):
        grid = build_grid(ex1.rmax, 16)
        series = ahpm_terms(ex1, grid, 2)
        with pytest.raises(DomainError):
            truncated_sum(series, 3, 0.5)

    def test_times_must_form_a_non_empty_flat_sequence(self, ex1):
        series = ahpm_terms(ex1, build_grid(ex1.rmax, 16), 2)
        for times in ((), [], np.array([]), np.zeros((2, 2)), [[0.0, 0.5]]):
            with pytest.raises(DomainError):
                truncated_sum(series, 2, times)


def bits_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def horner_per_time(series, m, t):
    """Partial sum at one time: Horner on each term's rows, then the terms in order."""
    acc = np.zeros(series.grid.cells)
    for term in series.terms[: m + 1]:
        out = np.zeros(series.grid.cells)
        for row in term.coeffs[::-1]:
            out = out * t + row
        acc += out
    return acc


@lru_cache(maxsize=None)
def ex1_series(method, scheme, cells):
    """Order-7 ex1 series (ham at alpha = -0.8); every lower order is a prefix."""
    case = registry_case("ex1")
    grid = build_grid(case.rmax, cells, scheme, 1e-3 if scheme == "geometric" else None)
    return ham_terms(case, grid, 7, -0.8) if method == "ham" else ahpm_terms(case, grid, 7)


class TestTruncatedSumAtManyTimes:
    """A sequence of times gives, bit for bit, the sums of one call per time."""

    @pytest.mark.parametrize("scheme, cells", [("uniform", 300), ("geometric", 200)])
    @pytest.mark.parametrize("method", ["ham", "ahpm"])
    def test_matches_one_call_per_time(self, method, scheme, cells):
        series = ex1_series(method, scheme, cells)
        times = tuple(np.linspace(0.0, series.case.tend, 11))
        for m in range(1, 8):
            sums = truncated_sum(series, m, times)
            assert isinstance(sums, tuple) and len(sums) == len(times)
            for t, g in zip(times, sums):
                single = truncated_sum(series, m, t)
                assert isinstance(single, GridFunction) and g.grid is series.grid
                assert bits_equal(g.values, single.values)
                assert bits_equal(g.values, horner_per_time(series, m, t))

    @settings(max_examples=30, deadline=None)
    @given(
        method=st.sampled_from(["ham", "ahpm"]),
        scheme=st.sampled_from([("uniform", 300), ("geometric", 200)]),
        m=st.integers(1, 7),
        times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(sorted),
    )
    def test_random_ascending_times(self, method, scheme, m, times):
        series = ex1_series(method, *scheme)
        for t, g in zip(times, truncated_sum(series, m, times)):
            assert bits_equal(g.values, truncated_sum(series, m, t).values)
            assert bits_equal(g.values, horner_per_time(series, m, t))

    def test_array_of_times_and_a_zero_dimensional_time(self):
        series = ex1_series("ahpm", "uniform", 300)
        times = np.array([0.25, 1.0])
        assert [g.values.tolist() for g in truncated_sum(series, 5, times)] == [
            truncated_sum(series, 5, float(t)).values.tolist() for t in times
        ]
        assert isinstance(truncated_sum(series, 5, np.float64(0.5)), GridFunction)
        assert isinstance(truncated_sum(series, 5, np.array(0.5)), GridFunction)

    def test_overflow_names_the_first_non_finite_time(self, ex1):
        grid = build_grid(ex1.rmax, 8)
        steep = TimePoly(grid, np.array([np.ones(8), np.full(8, 1e300)]))
        series = SeriesSolution(method="ahpm", case=ex1, grid=grid, terms=(steep,))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match=r"at t=1e\+10 "):
            truncated_sum(series, 0, (0.5, 1.0, 1e10, 1e20))


class TestResidual:
    def test_vanishes_at_initial_time(self, ex1):
        grid = build_grid(ex1.rmax, 64)
        for series in (ahpm_terms(ex1, grid, 3), ham_terms(ex1, grid, 3, -0.8)):
            defect = residual(ex1, series.terms).eval(0.0)
            assert np.max(np.abs(defect.values)) < 1e-14

    def test_exact_solution_leaves_discretisation_error(self, ex1):
        # a high-order expansion of the closed form nearly solves the
        # integrated equation; what remains is quadrature error
        grid = build_grid(ORACLE_RMAX, ORACLE_CELLS)
        terms = [taylor_term("ex1", m, grid) for m in range(13)]
        defect = residual(ex1, terms).eval(0.5)
        assert l1_norm(defect) <= 5e-3

    def test_shrinks_toward_optimal_control(self, ex1):
        grid = build_grid(ex1.rmax, 200)
        norms = []
        for alpha in (-0.3, -0.55, -0.8):
            series = ham_terms(ex1, grid, 5, alpha)
            norms.append(l1_norm(residual(ex1, series.terms).eval(1.0)))
        assert norms[0] > norms[1] > norms[2]

    @pytest.mark.parametrize("scheme", ["uniform", "geometric"])
    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
    def test_ahpm_term_is_negated_defect_of_previous_partial_sum(self, case_id, scheme):
        case, grid = case_grid(case_id, scheme, 100)
        for m in range(4):
            defect = residual(case, ahpm_terms(case, grid, m).terms)
            following = ahpm_terms(case, grid, m + 1).terms[m + 1]
            assert defect.coeffs.tobytes() == (-following.coeffs).tobytes()
            assert not defect.coeffs[0].any()

    def test_empty_or_mixed_grid_terms_are_refused(self, ex1):
        with pytest.raises(DomainError):
            residual(ex1, ())
        uniform = ahpm_terms(ex1, build_grid(ex1.rmax, 40), 2).terms
        geometric = ahpm_terms(ex1, build_grid(ex1.rmax, 40, "geometric", 0.01), 2).terms
        with pytest.raises(GridMismatchError):
            residual(ex1, uniform[:2] + geometric[2:])


class TestAveragedResidual:
    def test_non_negative(self, ex1):
        grid = build_grid(ex1.rmax, 100)
        assert averaged_residual(ex1, grid, 2, -0.7) >= 0.0

    def test_vanishes_for_tiny_times(self, ex1):
        grid = build_grid(ex1.rmax, 100)
        defect = residual(ex1, ham_terms(ex1, grid, 0, -0.8).terms)
        for t in (1e-9, 2e-9):
            assert np.mean(defect.eval(t).values ** 2) < 1e-15

    @pytest.mark.parametrize("order", [1, 5])
    @pytest.mark.parametrize("cells", [2, 3, 200])
    @pytest.mark.parametrize("scheme", ["uniform", "geometric"])
    def test_samples_only_the_cells_interp_reads(self, scheme, cells, order):
        from cbelab.series import _collocation, _read_cells

        case, grid = case_grid("ex1", scheme, cells)
        nodes = _collocation(case, order)
        read = _read_cells(grid, nodes[1])
        assert np.all(np.diff(read) > 0) and read[0] == 0 and read[-1] == grid.cells - 1
        assert read.size <= 2 * order + 2
        # the same double as sampling the whole grid
        samples = plain_sample(residual(case, ham_terms(case, grid, order, -0.8).terms).coeffs, grid, nodes)
        value = sum(float(np.sum(row**2)) for row in samples) / samples.size
        assert averaged_residual(case, grid, order, -0.8) == value

    def test_published_optimum_beats_endpoints(self, ex1):
        grid = build_grid(ex1.rmax, 200)
        a_star = averaged_residual(ex1, grid, 5, -0.826)
        assert a_star <= averaged_residual(ex1, grid, 5, -1.0)
        assert a_star <= averaged_residual(ex1, grid, 5, -0.5)


class TestOptimizeAlpha:
    def test_quick_scan_lands_near_published_value(self, ex1):
        grid = build_grid(ex1.rmax, 120)
        result = optimize_alpha(ex1, grid, 5)
        assert -0.95 <= result.alpha <= -0.70
        assert result.averaged_residual <= averaged_residual(ex1, grid, 5, -1.0)
        assert result.averaged_residual <= averaged_residual(ex1, grid, 5, -0.5)

    def test_objective_evaluations_bounded_by_degree(self, ex1, monkeypatch):
        import cbelab.series as series_module

        calls = []
        evaluate = series_module.averaged_residual

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(series_module, "averaged_residual", counted)
        optimize_alpha(ex1, build_grid(ex1.rmax, 120), 5)
        # the order-5 objective is a polynomial of degree 4 * 5 in alpha
        assert 0 < len(calls) <= 2 * (4 * 5 + 1)

    def test_candidates_are_the_only_ham_builds(self, ex1, monkeypatch):
        import cbelab.series as series_module

        evaluations, builds = [], []
        evaluate, build = series_module.averaged_residual, series_module.ham_terms

        def counted_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        def counted_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(series_module, "averaged_residual", counted_evaluate)
        monkeypatch.setattr(series_module, "ham_terms", counted_build)
        optimize_alpha(ex1, build_grid(ex1.rmax, 120), 5)
        # the fit comes from one alpha-free build; only the two endpoints and
        # the real critical points are evaluated, one HAM build each
        assert 2 <= len(evaluations) <= 5
        assert len(builds) == len(evaluations)

    def test_alpha_search_runs_one_alpha_free_build(self, ex1, monkeypatch):
        from cbelab.series import _hpm_build

        passes, products = [], []
        parent_pass, product = CollisionOperator.parent_pass, CollisionOperator.product

        def counted_pass(self, p):
            passes.append(p.shape)
            return parent_pass(self, p)

        def counted_product(*args):
            products.append(args)
            return product(*args)

        monkeypatch.setattr(CollisionOperator, "parent_pass", counted_pass)
        monkeypatch.setattr(CollisionOperator, "product", staticmethod(counted_product))
        _hpm_build.cache_clear()
        grid = build_grid(ex1.rmax, 300)
        ham_terms(ex1, grid, 5, optimize_alpha(ex1, grid, 5).alpha)
        assert _hpm_build.cache_info().misses == 1
        # one pass per HPM term and one per residual of the 3 candidates; 15
        # products build the terms, one stacked product fills the alpha table's
        # 36 pairs and 3 serve the residuals
        assert len(passes) == 6 + 3
        assert len(products) == 15 + 1 + 3

    @pytest.mark.parametrize(
        "cells, order, alpha_star",
        [(300, 5, -0.8108683738814098), (60, 3, -0.9330085210563668)],
    )
    def test_pinned_optimum(self, ex1, cells, order, alpha_star):
        result = optimize_alpha(ex1, build_grid(ex1.rmax, cells), order)
        assert abs(result.alpha - alpha_star) <= 1e-9

    @pytest.mark.parametrize("scheme", ["uniform", "geometric"])
    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
    def test_alpha_polynomial_matches_averaged_residual(self, case_id, scheme):
        from cbelab.series import _alpha_objective

        case, grid = case_grid(case_id, scheme, 200)
        alphas = (-1.0, -0.9, -0.81, -0.5, -0.1, -0.01)
        cheap = _alpha_objective(case, grid, 5)(np.array(alphas))
        true = np.array([averaged_residual(case, grid, 5, a) for a in alphas])
        assert np.all(np.abs(cheap - true) <= 1e-8 * true + 1e-20)

    def test_global_minimum_beats_fine_scan(self, ex1):
        grid = build_grid(ex1.rmax, 60)
        result = optimize_alpha(ex1, grid, 3)
        scan = min(averaged_residual(ex1, grid, 3, a) for a in np.arange(-1.0, -0.01, 0.005))
        assert result.averaged_residual <= scan
        # the reported value is a true evaluation, not the interpolant
        assert result.averaged_residual == averaged_residual(ex1, grid, 3, result.alpha)

    def test_interval_validation(self, ex1):
        with pytest.raises(DomainError):
            optimize_alpha(ex1, build_grid(ex1.rmax, 40), 0)

    def test_collocation_defaults(self, ex1):
        from cbelab.series import _collocation

        times, sizes = _collocation(ex1, 5)
        assert len(times) == 5 and len(sizes) == 5
        assert times[-1] == ex1.tend
        assert sizes[-1] == pytest.approx(ex1.rmax)
        assert sizes[0] == pytest.approx(ex1.rmax * 1e-3)
        with pytest.raises(DomainError):
            _collocation(ex1, 0)


class TestOracleTable:
    def test_table_contents(self):
        assert oracle_table() == (
            ("ex1", "ahpm", 0), ("ex1", "ahpm", 1), ("ex1", "ahpm", 2),
            ("ex1", "ahpm", 3), ("ex1", "ahpm", 4), ("ex1", "ahpm", 5),
            ("ex1", "ham", 0), ("ex1", "ham", 1), ("ex1", "ham", 2), ("ex1", "ham", 3),
            ("ex2", "ahpm", 0), ("ex2", "ahpm", 1), ("ex2", "ahpm", 2),
            ("ex2", "ahpm", 3), ("ex2", "ahpm", 4),
            ("ex2", "ham", 0), ("ex2", "ham", 1), ("ex2", "ham", 2), ("ex2", "ham", 3),
            ("ex3", "ahpm", 0), ("ex3", "ahpm", 1),
        )

    def test_unknown_entries_rejected(self):
        grid = build_grid(10.0, 16)
        with pytest.raises(NoOracleError):
            oracle_terms("ex3", "ahpm", 2, grid)
        with pytest.raises(NoOracleError):
            oracle_terms("ex3", "ham", 1, grid, alpha=-0.8)
        with pytest.raises(UnknownCaseError):
            oracle_terms("ex9", "ahpm", 1, grid)

    def test_ham_entries_need_alpha(self):
        grid = build_grid(10.0, 16)
        with pytest.raises(DomainError):
            oracle_terms("ex1", "ham", 1, grid)

    def test_ex3_first_correction_uses_exact_ratios(self):
        grid = build_grid(20.0, 64)
        term = oracle_terms("ex3", "ahpm", 1, grid)
        x = grid.midpoints
        expected = (
            (5.0 / 3.0) * np.exp(-(5.0 / 3.0) * x)
            + 2.5 * np.exp(-2.5 * x)
            - np.exp(-x)
        )
        assert term.coefficient(1).values == pytest.approx(expected)


class TestSeriesSolution:
    def test_methods_are_tagged(self, ex1):
        grid = build_grid(ex1.rmax, 16)
        assert ham_terms(ex1, grid, 1, -0.9).method == "ham"
        assert ahpm_terms(ex1, grid, 1).method == "ahpm"

    def test_ham_requires_alpha_tag(self, ex1):
        grid = build_grid(ex1.rmax, 16)
        term = taylor_term("ex1", 0, grid)
        with pytest.raises(DomainError):
            SeriesSolution(method="ham", case=ex1, grid=grid, terms=(term,))

    def test_unknown_method_refused(self, ex1):
        grid = build_grid(ex1.rmax, 16)
        term = taylor_term("ex1", 0, grid)
        with pytest.raises(DomainError, match="unknown series method 'hpm'"):
            SeriesSolution(method="hpm", case=ex1, grid=grid, terms=(term,))

    def test_needs_the_zeroth_term(self, ex1):
        with pytest.raises(DomainError, match="at least the zeroth term"):
            SeriesSolution(method="ahpm", case=ex1, grid=build_grid(ex1.rmax, 16), terms=())

    def test_taylor_term_only_for_ex1(self):
        grid = build_grid(10.0, 16)
        from cbelab import NoExactReferenceError

        with pytest.raises(NoExactReferenceError):
            taylor_term("ex2", 1, grid)
