
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbelab import (
    DomainError,
    GridFunction,
    GridMismatchError,
    NoExactReferenceError,
    SeriesSolution,
    TimePoly,
    abs_error_grid,
    ahpm_terms,
    build_grid,
    consecutive_term_norm,
    eoc,
    exact_concentration,
    ham_terms,
    integrate,
    l1_distance,
    moments_over_time,
    number_error,
    project_initial,
    quad_moment,
    reference_moment,
    truncated_sum,
)
from cbelab.metrics import MASS_DRIFT_TOL
from error_bounds import geometric_error_bound, ham_contraction


def series_profiles(series, times):
    return [truncated_sum(series, series.order, t) for t in times]


def bits_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def scheme_grid(case, scheme, cells):
    return build_grid(case.rmax, cells, scheme, 1e-3 if scheme == "geometric" else None)


SCHEMES = pytest.mark.parametrize("scheme, cells", [("uniform", 300), ("geometric", 200)])


class TestMoments:
    def test_initial_row_matches_projection(self, ex1):
        grid = build_grid(ex1.rmax, 80)
        solution = integrate(ex1, grid, (0.0, 0.5))
        table = moments_over_time(solution.times, solution.snapshots)
        projected = project_initial(ex1.init, grid)
        expected = [
            float(np.sum(grid.midpoints**n * projected.values * grid.widths))
            for n in (0, 1, 2)
        ]
        assert tuple(table.moments[0]) == pytest.approx(tuple(expected))

    def test_series_table_needs_times(self, ex1):
        grid = build_grid(ex1.rmax, 40)
        profiles = series_profiles(ahpm_terms(ex1, grid, 2), (0.0, 0.5))
        for times, given in (((), profiles), ((0.0,), profiles), ((), ())):
            with pytest.raises(DomainError):
                moments_over_time(times, given)

    def test_ex2_mass_stays_near_two(self, ex2):
        grid = build_grid(ex2.rmax, 150)
        solution = integrate(ex2, grid, (0.0, 0.5, 1.0))
        table = moments_over_time(solution.times, solution.snapshots)
        for value in table.moments[:, 1]:
            assert value == pytest.approx(2.0, rel=1e-2)
        assert not table.mass_drift_flagged

    def test_drift_flag_reacts_to_tolerance(self, ex3):
        # ex3 AHPM on 150 cells stays inside MASS_DRIFT_TOL; the cell-rule FVM
        # on 50 uniform cells drifts 9.2 % by the horizon
        times = (0.0, 0.25, 0.5)
        profiles = series_profiles(ahpm_terms(ex3, build_grid(ex3.rmax, 150), 3), times)
        within = moments_over_time(times, profiles)
        fvm = integrate(ex3, build_grid(ex3.rmax, 50), times)
        beyond = moments_over_time(fvm.times, fvm.snapshots)
        assert within.mass_drift < MASS_DRIFT_TOL < beyond.mass_drift
        assert not within.mass_drift_flagged
        assert beyond.mass_drift_flagged

    def test_minimum_reads_the_series_undershoot(self, ex1):
        # AHPM order 7 dips below zero near the right end of the domain by t = 0.5
        # (-2.72e-4 at x = 9.98 on 300 cells)
        grid = build_grid(ex1.rmax, 300)
        times = tuple(np.linspace(0.0, 1.0, 11))
        table = moments_over_time(times, series_profiles(ahpm_terms(ex1, grid, 7), times))
        assert table.times[5] == 0.5
        assert table.minimum[5] < 0

    @SCHEMES
    def test_matches_per_profile_quadrature_and_minimum(self, ex1, scheme, cells):
        grid = scheme_grid(ex1, scheme, cells)
        times = tuple(np.linspace(0.0, 1.0, 11))
        for profiles in (
            truncated_sum(ahpm_terms(ex1, grid, 7), 7, times),
            truncated_sum(ham_terms(ex1, grid, 5, -0.8), 5, times),
            integrate(ex1, grid, times).snapshots,
        ):
            table = moments_over_time(times, profiles)
            moments = np.array([[quad_moment(g, n) for n in (0, 1, 2)] for g in profiles])
            assert bits_equal(table.moments, moments)
            assert bits_equal(table.minimum, np.array([np.min(g.values) for g in profiles]))

    @settings(max_examples=30, deadline=None)
    @given(
        cells=st.sampled_from([2, 7, 300, 9001]),
        profiles=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_signed_profiles_match_per_profile_quadrature(self, cells, profiles, seed):
        # signed values with exact zeros of both signs, on cell counts either
        # side of the reduction block sizes
        rng = np.random.default_rng(seed)
        grid = build_grid(10.0, cells, "geometric", 1e-3)
        values = rng.normal(size=(profiles, cells)) * (rng.random((profiles, cells)) < 0.8)
        values[rng.random((profiles, cells)) < 0.1] = -0.0
        given_profiles = [GridFunction(grid, row) for row in values]
        table = moments_over_time(tuple(range(profiles)), given_profiles)
        moments = np.array([[quad_moment(g, n) for n in (0, 1, 2)] for g in given_profiles])
        assert bits_equal(table.moments, moments)
        assert bits_equal(table.minimum, np.array([np.min(g.values) for g in given_profiles]))

    def test_profiles_on_different_grids_are_refused(self, ex1):
        # equal cell counts: only grid identity tells the two apart
        first, second = build_grid(ex1.rmax, 40), build_grid(ex1.rmax, 40)
        profiles = [project_initial(ex1.init, first), project_initial(ex1.init, second)]
        with pytest.raises(GridMismatchError):
            moments_over_time((0.0, 0.5), profiles)


class TestAbsError:
    def test_exact_samples_have_zero_error(self, ex1):
        grid = build_grid(ex1.rmax, 60)
        samples = GridFunction(grid, exact_concentration(ex1, 0.5, grid.midpoints))
        err = abs_error_grid(samples, ex1, 0.5)
        assert np.all(err.values == 0.0)

    def test_requires_exact_reference(self, ex2):
        grid = build_grid(ex2.rmax, 30)
        g = project_initial(ex2.init, grid)
        with pytest.raises(NoExactReferenceError):
            abs_error_grid(g, ex2, 0.5)

    def test_fvm_error_is_small(self, ex1):
        grid = build_grid(ex1.rmax, 300)
        solution = integrate(ex1, grid, (0.0, 1.0))
        err = abs_error_grid(solution.snapshots[-1], ex1, 1.0)
        assert float(np.max(err.values)) <= 5e-2

    def test_series_error_peaks_in_the_tail(self, ex1):
        grid = build_grid(ex1.rmax, 400)
        series = ahpm_terms(ex1, grid, 5)
        err = abs_error_grid(truncated_sum(series, 5, 1.0), ex1, 1.0).values
        relative = err / exact_concentration(ex1, 1.0, grid.midpoints)
        assert relative[-1] > relative[len(relative) // 4]


class TestNumberError:
    def test_cell_averages_of_exact_solution(self, ex1):
        grid = build_grid(ex1.rmax, 120)
        nodes, weights = np.polynomial.legendre.leggauss(20)
        half = 0.5 * grid.widths
        averages = np.zeros(grid.cells)
        for node, weight in zip(nodes, weights):
            x = grid.midpoints + half * node
            averages += weight * exact_concentration(ex1, 1.0, x)
        averages *= 0.5
        err = number_error(GridFunction(grid, averages), ex1, 1.0)
        assert err <= 1e-10

    def test_monotone_decay_between_grids(self, ex1):
        errors = []
        for cells in (30, 60):
            grid = build_grid(ex1.rmax, cells)
            solution = integrate(ex1, grid, (0.0, 1.0))
            errors.append(number_error(solution.snapshots[-1], ex1, 1.0))
        assert errors[0] > errors[1]

    def test_number_is_linear_in_the_state(self, ex1):
        grid = build_grid(ex1.rmax, 50)
        g = project_initial(ex1.init, grid)
        doubled = GridFunction(grid, 2.0 * g.values)
        n_single = float(np.sum(g.values * grid.widths))
        err = number_error(doubled, ex1, 0.0)
        reference = number_error(g, ex1, 0.0)
        # doubling the state shifts the total number by exactly its own size
        assert err == pytest.approx(n_single + reference, rel=1e-12)

    def test_requires_exact_reference(self, ex2):
        grid = build_grid(ex2.rmax, 30)
        g = project_initial(ex2.init, grid)
        with pytest.raises(NoExactReferenceError):
            number_error(g, ex2, 0.5)

    @SCHEMES
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_reference_moment_matches_the_per_node_loop(self, ex1, scheme, cells, order):
        grid = scheme_grid(ex1, scheme, cells)
        nodes, weights = np.polynomial.legendre.leggauss(20)
        half = 0.5 * grid.widths
        for t in (0.0, 0.35, 1.0):
            expected = 0.0
            for node, weight in zip(nodes, weights):
                x = grid.midpoints + half * node
                expected += weight * float(np.sum(x**order * exact_concentration(ex1, t, x) * half))
            assert bits_equal(np.float64(reference_moment(ex1, grid, t, order)), np.float64(expected))


class TestEoc:
    def test_exact_halving(self):
        assert eoc(0.1, 0.05) == pytest.approx(1.0)
        assert eoc(0.1, 0.025) == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(1e-6, 1e6),
        e1=st.floats(1e-9, 1e3),
        ratio=st.floats(1.01, 100.0),
    )
    def test_scale_invariance(self, scale, e1, ratio):
        e2 = e1 / ratio
        assert eoc(scale * e1, scale * e2) == pytest.approx(eoc(e1, e2), rel=1e-9)

    def test_rejects_non_positive_errors(self):
        with pytest.raises(DomainError):
            eoc(0.0, 0.1)
        with pytest.raises(DomainError):
            eoc(0.1, -0.1)


class TestConsecutiveTermNorms:
    def test_zeroth_term_has_unit_norm(self, ex1):
        grid = build_grid(ex1.rmax, 500)
        series = ahpm_terms(ex1, grid, 1)
        assert consecutive_term_norm(series, 0) == pytest.approx(1.0, abs=1e-3)

    def test_equals_distance_of_truncated_sums(self, ex2):
        grid = build_grid(ex2.rmax, 150)
        series = ahpm_terms(ex2, grid, 4)
        for m in (1, 2, 3, 4):
            distance = l1_distance(
                truncated_sum(series, m, ex2.tend),
                truncated_sum(series, m - 1, ex2.tend),
            )
            assert consecutive_term_norm(series, m) == pytest.approx(
                distance, abs=1e-12
            )

    def test_zero_term_has_zero_norm(self, ex1):
        grid = build_grid(ex1.rmax, 20)
        zero = TimePoly(grid, np.zeros((1, 20)))
        series = SeriesSolution(
            method="ahpm", case=ex1, grid=grid, terms=(zero, zero)
        )
        assert consecutive_term_norm(series, 1) == 0.0

    def test_order_above_the_series_is_refused(self, ex1):
        series = ahpm_terms(ex1, build_grid(ex1.rmax, 20), 2)
        with pytest.raises(DomainError, match="order 3 exceeds the series order 2"):
            consecutive_term_norm(series, 3)


class TestGeometricBound:
    def test_reference_value(self):
        assert geometric_error_bound(0.5, 3, 1.0) == pytest.approx(0.25)

    def test_halves_with_each_order(self):
        for m in range(1, 6):
            ratio = geometric_error_bound(0.5, m + 1, 1.0) / geometric_error_bound(
                0.5, m, 1.0
            )
            assert ratio == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        contraction=st.floats(0.05, 0.95),
        m=st.integers(0, 30),
        norm=st.floats(1e-6, 1e3),
    )
    def test_monotone_in_order_and_contraction(self, contraction, m, norm):
        bound = geometric_error_bound(contraction, m, norm)
        assert geometric_error_bound(contraction, m + 1, norm) < bound
        if contraction + 0.02 < 1.0:
            assert geometric_error_bound(contraction + 0.02, m, norm) > bound

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            geometric_error_bound(1.0, 2, 1.0)
        with pytest.raises(DomainError):
            geometric_error_bound(0.5, -1, 1.0)

    def test_contraction_combiner(self):
        assert ham_contraction(0.3, -0.9) == pytest.approx(0.37)
        assert ham_contraction(0.0, -1.0) == 0.0
