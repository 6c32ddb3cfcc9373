import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cbelab
from cbelab import (
    CaseSpec,
    ConstantKernel,
    CustomKernel,
    DiscreteFragmentsBreakage,
    DivergenceError,
    DomainError,
    ExponentialIC,
    MassUniformBreakage,
    StiffnessError,
    build_grid,
    integrate,
    moments_over_time,
    precompute_weights,
    project_initial,
    registry_case,
)
from cbelab.collision import CollisionOperator, brute_force_rhs, fragment_shares
from cbelab.fvm import _ATOL, _RTOL, _integrate_dopri54


class TestWeights:
    def test_mass_uniform_same_cell(self):
        grid = build_grid(1.0, 4)
        table = fragment_shares(grid, MassUniformBreakage())
        for i in range(4):
            assert table[i, i] == pytest.approx(grid.widths[i] / grid.midpoints[i])

    def test_mass_uniform_distinct_cells(self):
        grid = build_grid(1.0, 4)
        table = fragment_shares(grid, MassUniformBreakage())
        for i in range(4):
            for j in range(i + 1, 4):
                assert table[i, j] == pytest.approx(
                    2.0 * grid.widths[i] / grid.midpoints[j]
                )
            for j in range(i):
                assert table[i, j] == 0.0

    def test_discrete_fragments_indicator(self):
        grid = build_grid(1.0, 4)
        law = DiscreteFragmentsBreakage((Fraction(2, 5), Fraction(3, 5)))
        table = fragment_shares(grid, law)
        # parent midpoint 0.875: fragment 0.35 lands in [0.25, 0.5), 0.525 in [0.5, 0.75)
        assert table[1, 3] == 1.0
        assert table[2, 3] == 1.0
        assert table[0, 3] == 0.0

    def test_fragment_count_is_exact_per_parent(self):
        grid = build_grid(10.0, 57)
        for law in (
            MassUniformBreakage(),
            DiscreteFragmentsBreakage((Fraction(2, 5), Fraction(3, 5))),
        ):
            table = fragment_shares(grid, law)
            assert np.sum(table, axis=0) == pytest.approx(np.full(57, 2.0))

    def test_fragment_mass_stays_bounded(self):
        grid = build_grid(10.0, 64)
        table = fragment_shares(grid, MassUniformBreakage())
        mass_per_parent = grid.midpoints @ table
        slack = np.max(grid.widths)
        assert np.all(mass_per_parent <= grid.midpoints + slack)

    def test_fragment_shares_reject_other_laws(self):
        with pytest.raises(DomainError):
            fragment_shares(build_grid(1.0, 4), object())

    @pytest.mark.parametrize("cells", [57, 300])
    @pytest.mark.parametrize("scheme, eps_min", [("uniform", None), ("geometric", 1e-3)])
    @pytest.mark.parametrize(
        "law",
        [MassUniformBreakage(), DiscreteFragmentsBreakage((Fraction(2, 5), Fraction(3, 5)))],
        ids=["mass-uniform", "two-fifths"],
    )
    def test_birth_map_conserves_fragments_per_event(self, law, scheme, eps_min, cells):
        # row j of the unit densities holds w_j collision events of parents in cell j
        grid = build_grid(10.0, cells, scheme, eps_min)
        mid, w = grid.midpoints, grid.widths
        birth = precompute_weights(grid, law)(np.eye(cells))
        fragments = np.sum(birth * w, axis=1) / w
        assert np.max(np.abs(fragments - 2.0)) <= 2.0 * 1e-14
        assert np.all(np.sum(birth * (mid * w), axis=1) / w <= mid + np.max(w))


class TestRhs:
    def test_zero_state(self, ex1):
        grid = build_grid(5.0, 12)
        weights = precompute_weights(grid, ex1.breakage)
        out = CollisionOperator(weights, ex1.kernel).rhs(np.zeros(12))
        assert np.all(out == 0.0)

    def test_three_cell_hand_grid(self, ex1):
        grid = build_grid(3.0, 3)
        weights = precompute_weights(grid, ex1.breakage)
        f = np.array([0.7, 0.4, 0.1])
        fast = CollisionOperator(weights, ex1.kernel).rhs(f)
        slow = brute_force_rhs(grid, ex1.breakage, ex1.kernel, f)
        assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
    @pytest.mark.parametrize("cells", [5, 20])
    def test_matches_brute_force(self, case_id, cells, rng):
        case = registry_case(case_id)
        grid = build_grid(case.rmax, cells)
        weights = precompute_weights(grid, case.breakage)
        f = rng.uniform(0.0, 1.0, cells)
        fast = CollisionOperator(weights, case.kernel).rhs(f)
        slow = brute_force_rhs(grid, case.breakage, case.kernel, f)
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_total_loss_rate_is_quadratic_form(self, ex1):
        grid = build_grid(5.0, 16)
        mid, w = grid.midpoints, grid.widths
        f = project_initial(ex1.init, grid).values
        rates = np.outer(mid, mid)
        death = f * (rates @ (f * w))
        total = float(np.sum(w * death))
        quadratic = float(np.sum(rates * np.outer(f * w, f * w)))
        assert total == pytest.approx(quadratic, rel=1e-13)


class TestIntegrate:
    def test_initial_snapshot_is_projection(self, ex1):
        grid = build_grid(ex1.rmax, 50)
        solution = integrate(ex1, grid, (0.0, 0.5))
        projected = project_initial(ex1.init, grid)
        assert np.array_equal(solution.snapshots[0].values, projected.values)

    def test_single_output_time_takes_no_step(self, ex1):
        grid = build_grid(ex1.rmax, 50)
        solution = integrate(ex1, grid, (0.0,))
        projected = project_initial(ex1.init, grid)
        assert len(solution.snapshots) == 1
        assert np.array_equal(solution.snapshots[0].values, projected.values)
        assert solution.step_count == 0
        assert solution.rhs_evaluations == 0

    def test_matches_tight_dop853(self, ex1):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        grid = build_grid(ex1.rmax, 60)
        adaptive = integrate(ex1, grid, (0.0, 1.0))
        operator = CollisionOperator(precompute_weights(grid, ex1.breakage), ex1.kernel)
        y0 = project_initial(ex1.init, grid).values
        reference = solve_ivp(
            lambda t, y: operator.rhs(y), (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-14
        )
        assert adaptive.snapshots[-1].values == pytest.approx(reference.y[:, -1], abs=1e-7)

    @pytest.mark.parametrize("tend", [1e-13, 1e-15])
    def test_short_horizon_takes_a_step(self, ex1, tend):
        case = replace(ex1, tend=tend)
        solution = integrate(case, build_grid(case.rmax, 50), (0.0, tend))
        assert len(solution.snapshots) == 2
        assert solution.step_count >= 1

    def test_time_past_a_short_horizon_raises(self, ex1):
        # ten times the horizon; an absolute slack of 1e-12 once let it through
        case = replace(ex1, tend=1e-13)
        with pytest.raises(DomainError, match="horizon"):
            integrate(case, build_grid(case.rmax, 50), (0.0, 1e-12))

    @pytest.mark.parametrize("tend", [1e-13, 0.3, 2.7])
    def test_default_times_reach_the_horizon(self, ex1, tend):
        case = replace(ex1, tend=tend)
        solution = integrate(case, build_grid(case.rmax, 20), np.linspace(0.0, tend, 11))
        assert solution.times[-1] == tend

    def test_mass_drift_small(self, ex1):
        grid = build_grid(ex1.rmax, 150)
        solution = integrate(ex1, grid, tuple(np.linspace(0.0, 1.0, 6)))
        mass = moments_over_time(solution.times, solution.snapshots).moments[:, 1]
        assert np.max(np.abs(mass - mass[0])) <= 1e-2 * mass[0]

    def test_diagnostics_recorded(self, ex1):
        grid = build_grid(ex1.rmax, 300)
        solution = integrate(ex1, grid, tuple(np.linspace(0.0, 1.0, 11)))
        assert solution.step_count > 0
        assert solution.rhs_evaluations >= 6 * solution.step_count
        # the finite volumes stay positive (smallest value 2.3e-9, at t = 1)
        minimum = moments_over_time(solution.times, solution.snapshots).minimum
        assert minimum.shape == (11,)
        assert np.all(minimum > 0)

    def test_times_validation(self, ex1):
        grid = build_grid(ex1.rmax, 16)
        with pytest.raises(DomainError):
            integrate(ex1, grid, (0.5, 1.0))
        with pytest.raises(DomainError):
            integrate(ex1, grid, (0.0, 0.5, 0.5))
        with pytest.raises(DomainError):
            integrate(ex1, grid, (0.0, 2.0))

    def test_blowup_triggers_stiffness_error(self):
        # K large drives the particle count to a finite-time singularity
        case = CaseSpec(
            id="blowup",
            kernel=ConstantKernel(1e6),
            breakage=MassUniformBreakage(),
            init=ExponentialIC(),
            rmax=5.0,
            tend=1.0,
        )
        grid = build_grid(case.rmax, 24)
        with pytest.raises(StiffnessError):
            integrate(case, grid, (0.0, 1.0))

    def test_non_finite_state_diverges(self):
        # every stage is finite, but the accepted step overflows the state
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite state"):
            _integrate_dopri54(
                lambda t, y: np.full_like(y, 1e300), np.full(3, 1e308), np.array([0.0, 1e10])
            )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_derivative_scale_diverges(self):
        # |f0 / scale| overflows; the initial step used to collapse to zero
        case = CaseSpec(
            id="overflow",
            kernel=ConstantKernel(1e300),
            breakage=MassUniformBreakage(),
            init=ExponentialIC(),
            rmax=5.0,
            tend=1.0,
        )
        grid = build_grid(case.rmax, 24)
        with pytest.raises(DivergenceError, match="non-finite derivative scale"):
            integrate(case, grid, (0.0, 1.0))

    def test_final_time_accuracy_ex1(self, ex1):
        # coarse run against the closed form; the acceptance suite tightens this
        grid = build_grid(ex1.rmax, 150)
        solution = integrate(ex1, grid, (0.0, 1.0))
        exact = (
            (1.0 + 1.0) ** 2 * np.exp(-grid.midpoints * 2.0)
        )
        err = float(np.sum(np.abs(solution.snapshots[-1].values - exact) * grid.widths))
        assert err / 2.0 < 5e-2

    def test_nan_rhs_at_start_diverges(self, ex1):
        # a NaN derivative at t=0 makes the initial step NaN, which no
        # rejection can shrink below the step floor
        case = replace(ex1, kernel=CustomKernel(lambda x, y: float("nan")))
        with pytest.raises(DivergenceError):
            integrate(case, build_grid(10.0, 20), (0.0, 0.5, 1.0))

    def test_nan_error_norm_shrinks_step_to_the_floor(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y if t == 0.0 else np.full_like(y, np.nan)

        with pytest.raises(StiffnessError):
            _integrate_dopri54(rhs, np.ones(3), np.array([0.0, 1.0]))
        # after f0 and the initial-step probe, each trial step makes six
        # calls, the last at t + h with t = 0
        trial_steps = calls[2:][5::6]
        assert len(calls) == 2 + 6 * len(trial_steps)
        assert len(trial_steps) > 400
        assert all(b == a * 0.2 for a, b in zip(trial_steps, trial_steps[1:]))
        floor = 10 * np.nextafter(0.0, 1.0)
        assert trial_steps[-1] >= floor > trial_steps[-1] * 0.2


_OUTPUT_TIMES = 11


@pytest.mark.parametrize("cells", [30, 300])
@pytest.mark.parametrize(
    "case_id, steps, evaluations", [("ex1", 11, 68), ("ex2", 3, 20), ("ex3", 5, 44)]
)
def test_stepper_work_counts(case_id, steps, evaluations, cells):
    # ex3 rejects two trial steps, so this also pins the rejection branch
    case = registry_case(case_id)
    times = np.linspace(0.0, case.tend, _OUTPUT_TIMES)
    solution = integrate(case, build_grid(case.rmax, cells), times)
    assert (solution.step_count, solution.rhs_evaluations) == (steps, evaluations)


@pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
@pytest.mark.parametrize("scheme, cells", [("uniform", 30), ("uniform", 300), ("geometric", 200)])
def test_stepper_matches_scipy_rk45(case_id, scheme, cells):
    RK45 = pytest.importorskip("scipy.integrate").RK45
    case = registry_case(case_id)
    grid = build_grid(case.rmax, cells, scheme, 0.01 if scheme == "geometric" else None)
    times = np.linspace(0.0, case.tend, _OUTPUT_TIMES)
    operator = CollisionOperator(precompute_weights(grid, case.breakage), case.kernel)
    y0 = project_initial(case.init, grid).values
    stepper = RK45(lambda t, y: operator.rhs(y), 0.0, y0, t_bound=case.tend, atol=_ATOL, rtol=_RTOL)
    expected = [y0]
    steps = 0
    while stepper.status == "running":
        stepper.step()
        steps += 1
        dense = stepper.dense_output()
        expected += [dense(t) for t in times[len(expected):] if t <= stepper.t + 1e-14]

    solution = integrate(case, grid, times)
    assert len(solution.snapshots) == len(expected)
    for snapshot, values in zip(solution.snapshots, expected):
        assert np.array_equal(snapshot.values, values)
    assert (solution.step_count, solution.rhs_evaluations) == (steps, stepper.nfev)


def test_final_profile_does_not_depend_on_the_blas_thread_count():
    # the operator's rate sums and the stepper's error norm are numpy reductions,
    # not threaded BLAS ones; OpenBLAS splits a dot product from about 10 000 cells
    script = (
        "import sys\n"
        "from cbelab import build_grid, integrate, registry_case\n"
        "for case_id, cells in (('ex1', 12000), ('ex2', 20000), ('ex1', 40000)):\n"
        "    case = registry_case(case_id)\n"
        "    solution = integrate(case, build_grid(case.rmax, cells), [0.0, case.tend])\n"
        "    sys.stdout.write(solution.snapshots[-1].values.tobytes().hex() + '\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cbelab.__file__).parents[1]))
    profiles = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(env, OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        for threads in (1, 2)
    ]
    assert len(profiles[0]) == 3
    assert profiles[0] == profiles[1]
