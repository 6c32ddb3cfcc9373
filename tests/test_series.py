import math

import numpy as np
import pytest

from cbelab import (
    DomainError,
    GridMismatchError,
    NoOracleError,
    SeriesSolution,
    TimePoly,
    UnknownCaseError,
    ahpm_terms,
    averaged_residual,
    birth_apply,
    build_grid,
    death_apply,
    default_collocation,
    ham_terms,
    l1_distance,
    l1_norm,
    optimize_alpha,
    oracle_table,
    oracle_terms,
    poly_antiderivative,
    poly_mul,
    project_initial,
    registry_case,
    residual,
    taylor_term,
    truncated_sum,
)

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


class TestPolyOps:
    def test_mul_identity(self, rng):
        grid = build_grid(1.0, 5)
        one = TimePoly(grid, np.ones((1, 5)))
        q = TimePoly(grid, rng.normal(size=(3, 5)))
        out = poly_mul(one, q)
        assert out.coeffs == pytest.approx(q.coeffs)

    def test_monomial_product(self):
        grid = build_grid(1.0, 2)
        a = TimePoly(grid, np.array([[0.0, 0.0], [2.0, 3.0]]))
        b = TimePoly(grid, np.array([[0.0, 0.0], [5.0, 7.0]]))
        out = poly_mul(a, b)
        assert out.degree == 2
        assert out.coeffs[2] == pytest.approx([10.0, 21.0])

    def test_mul_against_pointwise_evaluation(self, rng):
        grid = build_grid(2.0, 4)
        p = TimePoly(grid, rng.normal(size=(3, 4)))
        q = TimePoly(grid, rng.normal(size=(4, 4)))
        out = poly_mul(p, q)
        for t in np.linspace(0.0, 1.5, 7):
            assert out.eval(t).values == pytest.approx(
                p.eval(t).values * q.eval(t).values
            )

    def test_mul_grid_mismatch(self):
        a = TimePoly(build_grid(1.0, 4), np.ones((1, 4)))
        b = TimePoly(build_grid(1.0, 4), np.ones((1, 4)))
        with pytest.raises(GridMismatchError):
            poly_mul(a, b)

    def test_antiderivative_of_constant(self):
        grid = build_grid(1.0, 2)
        c = TimePoly(grid, np.array([[3.0, 4.0]]))
        out = poly_antiderivative(c)
        assert out.coeffs == pytest.approx(np.array([[0.0, 0.0], [3.0, 4.0]]))

    def test_antiderivative_of_linear(self):
        grid = build_grid(1.0, 2)
        c = TimePoly(grid, np.array([[0.0, 0.0], [3.0, 4.0]]))
        out = poly_antiderivative(c)
        assert out.coeffs[2] == pytest.approx([1.5, 2.0])

    def test_antiderivative_inverts_differentiation(self, rng):
        grid = build_grid(1.0, 3)
        p = TimePoly(grid, rng.normal(size=(4, 3)))
        anti = poly_antiderivative(p)
        h = 1e-6
        for t in (0.2, 0.9):
            derivative = (anti.eval(t + h).values - anti.eval(t - h).values) / (2 * h)
            assert derivative == pytest.approx(p.eval(t).values, rel=1e-7, abs=1e-7)


class TestCollisionOperators:
    def test_death_of_zero_partner(self, ex1):
        grid = build_grid(ex1.rmax, 32)
        f0 = project_initial(ex1.init, grid)
        zero = TimePoly(grid, np.zeros((1, 32))).eval(0.0)
        assert np.all(death_apply(ex1.kernel, f0, zero).values == 0.0)

    def test_death_product_kernel_closed_form(self, ex1):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex1.init, grid)
        out = death_apply(ex1.kernel, f0, f0)
        mass = 1.0 - 21.0 * math.exp(-20.0)
        expected = grid.midpoints * np.exp(-grid.midpoints) * mass
        assert rel_l1(out, type(out)(grid, expected)) < 1e-3

    def test_death_constant_kernel_closed_form(self, ex3):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex3.init, grid)
        out = death_apply(ex3.kernel, f0, f0)
        number = 1.0 - math.exp(-20.0)
        expected = np.exp(-grid.midpoints) * number
        assert rel_l1(out, type(out)(grid, expected)) < 1e-3

    def test_birth_of_zero_parents(self, ex1):
        grid = build_grid(ex1.rmax, 32)
        f0 = project_initial(ex1.init, grid)
        zero = death_apply(ex1.kernel, f0, f0)
        zero = type(zero)(grid, np.zeros(32))
        assert np.all(birth_apply(ex1.kernel, ex1.breakage, zero, f0).values == 0.0)

    def test_birth_mass_uniform_closed_form(self, ex1):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex1.init, grid)
        out = birth_apply(ex1.kernel, ex1.breakage, f0, f0)
        expected = 2.0 * np.exp(-grid.midpoints)
        assert rel_l1(out, type(out)(grid, expected)) < 1e-3

    def test_birth_discrete_fragments_closed_form(self, ex3):
        grid = build_grid(20.0, 2000)
        f0 = project_initial(ex3.init, grid)
        out = birth_apply(ex3.kernel, ex3.breakage, f0, f0)
        x = grid.midpoints
        expected = 2.5 * np.exp(-2.5 * x) + (5.0 / 3.0) * np.exp(-(5.0 / 3.0) * x)
        assert rel_l1(out, type(out)(grid, expected)) < 1e-3

    def test_grid_mismatch_rejected(self, ex1):
        a = project_initial(ex1.init, build_grid(10.0, 16))
        b = project_initial(ex1.init, build_grid(10.0, 16))
        with pytest.raises(GridMismatchError):
            death_apply(ex1.kernel, a, b)
        with pytest.raises(GridMismatchError):
            birth_apply(ex1.kernel, ex1.breakage, a, b)


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


class TestHamAlphaStructure:
    @pytest.mark.parametrize("scheme", ["uniform", "geometric"])
    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
    def test_terms_are_binomial_mixtures_of_hpm_terms(self, case_id, scheme):
        # with L = d/dt and H = 1 the deformation equation makes term m a fixed
        # combination of the alpha = -1 (plain HPM) terms g_j:
        # sum_j (-alpha)^j C(m-1, j-1) (1+alpha)^(m-j) g_j
        case, grid = case_grid(case_id, scheme, 200)
        hpm = ham_terms(case, grid, 5, -1.0).terms
        for alpha in (-0.9, -0.826, -0.5, -0.1):
            terms = ham_terms(case, grid, 5, alpha).terms
            for m in range(1, 6):
                expected = sum(
                    (-alpha) ** j * math.comb(m - 1, j - 1) * (1 + alpha) ** (m - j)
                    * padded(hpm[j].coeffs, m + 1)
                    for j in range(1, m + 1)
                )
                actual = padded(terms[m].coeffs, m + 1)
                assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(actual))


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
            assert np.array_equal(defect.coeffs, -following.coeffs)
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
        from cbelab import CollocationSpec

        grid = build_grid(ex1.rmax, 100)
        colloc = CollocationSpec(times=(1e-9, 2e-9), sizes=(0.5, 1.0, 2.0))
        assert averaged_residual(ex1, grid, 0, -0.8, colloc) < 1e-15

    def test_published_optimum_beats_endpoints(self, ex1):
        grid = build_grid(ex1.rmax, 200)
        a_star = averaged_residual(ex1, grid, 5, -0.826)
        assert a_star <= averaged_residual(ex1, grid, 5, -1.0)
        assert a_star <= averaged_residual(ex1, grid, 5, -0.5)

    def test_collocation_validation(self, ex1):
        from cbelab import CollocationSpec

        with pytest.raises(DomainError):
            CollocationSpec(times=(), sizes=(1.0,))
        with pytest.raises(DomainError):
            CollocationSpec(times=(0.0,), sizes=(1.0,))
        grid = build_grid(ex1.rmax, 50)
        bad = CollocationSpec(times=(2.0,), sizes=(1.0,))
        with pytest.raises(DomainError):
            averaged_residual(ex1, grid, 1, -0.5, bad)


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
        cheap = _alpha_objective(case, grid, 5, default_collocation(case, 5))(np.array(alphas))
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
        grid = build_grid(ex1.rmax, 40)
        with pytest.raises(DomainError):
            optimize_alpha(ex1, grid, 5, lo=-0.5, hi=-0.9)
        with pytest.raises(DomainError):
            optimize_alpha(ex1, grid, 0)

    def test_collocation_defaults(self, ex1):
        colloc = default_collocation(ex1, 5)
        assert len(colloc.times) == 5 and len(colloc.sizes) == 5
        assert colloc.times[-1] == ex1.tend
        assert colloc.sizes[-1] == pytest.approx(ex1.rmax)
        assert colloc.sizes[0] == pytest.approx(ex1.rmax * 1e-3)


class TestOracleTable:
    def test_table_contents(self):
        table = oracle_table()
        assert ("ex1", "ham", 3) in table
        assert ("ex1", "ahpm", 5) in table
        assert ("ex2", "ham", 3) in table
        assert ("ex2", "ahpm", 4) in table
        assert ("ex3", "ahpm", 1) in table
        assert ("ex3", "ahpm", 2) not in table
        assert ("ex3", "ham", 1) not in table

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

    def test_taylor_term_only_for_ex1(self):
        grid = build_grid(10.0, 16)
        from cbelab import NoExactReferenceError

        with pytest.raises(NoExactReferenceError):
            taylor_term("ex2", 1, grid)
