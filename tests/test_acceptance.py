"""Acceptance suite: one test per published criterion, at the stated tolerances.

Each check prints a PASS/FAIL line with the measured value before asserting,
so a full run doubles as a benchmark report.  Grids follow the case defaults
(R = 10 for ex1, R = 20 otherwise) except for the closed-form term
comparisons, which run on R = 20 for every case so that domain truncation
stays below the quadrature error being measured.
"""

import numpy as np
import pytest

from cbelab import (
    ahpm_terms,
    averaged_residual,
    build_grid,
    consecutive_term_norm,
    eoc,
    exact_concentration,
    exact_moment,
    ham_terms,
    integrate,
    l1_distance,
    l1_norm,
    moments_over_time,
    number_error,
    optimize_alpha,
    oracle_table,
    oracle_terms,
    precompute_weights,
    quad_moment,
    registry_case,
    truncated_sum,
)
from cbelab.cli import main as cli_main
from cbelab.collision import CollisionOperator, brute_force_rhs

ORACLE_RMAX = 20.0
ORACLE_CELLS = 1000
MOMENT_CELLS = 300
EOC_CELLS = (30, 60, 120, 240)


def check(criterion: str, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def within(value: float, target: float, rel: float) -> tuple[bool, str]:
    gap = abs(value - target) / abs(target)
    return gap <= rel, f"value {value:.6g} vs {target:.6g} ({gap:.2%}, allowed {rel:.1%})"


# --------------------------------------------------------------------------
# shared expensive artefacts
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def alpha_stars():
    """Optimised control parameters on a 200-cell grid per case."""
    results = {}
    for case_id, order in (("ex1", 5), ("ex2", 5), ("ex3", 3)):
        case = registry_case(case_id)
        grid = build_grid(case.rmax, 200)
        results[case_id] = optimize_alpha(case, grid, order)
    return results


@pytest.fixture(scope="module")
def eoc_errors():
    """Total-number errors on doubling ex1 grids for the three methods."""
    case = registry_case("ex1")
    errors = {"fvm": [], "ham": [], "ahpm": []}
    for cells in EOC_CELLS:
        grid = build_grid(case.rmax, cells)
        solution = integrate(case, grid, (0.0, case.tend))
        errors["fvm"].append(
            number_error(solution.snapshots[-1], case, case.tend)
        )
        ham = ham_terms(case, grid, 5, case.reference_alpha)
        errors["ham"].append(
            number_error(truncated_sum(ham, 5, case.tend), case, case.tend)
        )
        ahpm = ahpm_terms(case, grid, 5)
        errors["ahpm"].append(
            number_error(truncated_sum(ahpm, 5, case.tend), case, case.tend)
        )
    return errors


@pytest.fixture(scope="module")
def fvm_ex1():
    case = registry_case("ex1")
    grid = build_grid(case.rmax, MOMENT_CELLS)
    return case, grid, integrate(case, grid, (0.0, 0.5, 1.0))


@pytest.fixture(scope="module")
def series_ex1(alpha_stars):
    case = registry_case("ex1")
    grid = build_grid(case.rmax, MOMENT_CELLS)
    ham = ham_terms(case, grid, 5, alpha_stars["ex1"].alpha)
    ahpm = ahpm_terms(case, grid, 5)
    return case, grid, ham, ahpm


@pytest.fixture(scope="module")
def moments_ex2(alpha_stars):
    case = registry_case("ex2")
    grid = build_grid(case.rmax, MOMENT_CELLS)
    solution = integrate(case, grid, (0.0, 1.0))
    ham = ham_terms(case, grid, 5, alpha_stars["ex2"].alpha)
    ahpm = ahpm_terms(case, grid, 5)
    values = {
        "fvm": tuple(moments_over_time(solution.times, solution.snapshots).moments[-1][:2]),
        "ham": tuple(
            quad_moment(truncated_sum(ham, 5, 1.0), n) for n in (0, 1)
        ),
        "ahpm": tuple(
            quad_moment(truncated_sum(ahpm, 5, 1.0), n) for n in (0, 1)
        ),
    }
    return case, grid, values, ham, ahpm


@pytest.fixture(scope="module")
def moments_ex3(alpha_stars):
    case = registry_case("ex3")
    grid = build_grid(case.rmax, MOMENT_CELLS)
    solution = integrate(case, grid, (0.0, 0.25, 0.5))
    ham = ham_terms(case, grid, 3, alpha_stars["ex3"].alpha)
    ahpm = ahpm_terms(case, grid, 3)
    return case, grid, solution, ham, ahpm


# --------------------------------------------------------------------------
# criterion 1: convergence-order table
# --------------------------------------------------------------------------

def test_criterion_1_errors_strictly_decreasing(eoc_errors):
    for method, errors in eoc_errors.items():
        ok = all(a > b for a, b in zip(errors, errors[1:]))
        detail = " > ".join(f"{e:.3e}" for e in errors)
        check("1", f"{method} errors decreasing", ok, detail)


@pytest.mark.parametrize(
    "method,lo,hi",
    [("fvm", 0.95, 1.20), ("ham", 0.90, 1.05), ("ahpm", 0.95, 1.05)],
)
def test_criterion_1_final_doubling_order(eoc_errors, method, lo, hi):
    errors = eoc_errors[method]
    order = eoc(errors[-2], errors[-1])
    ok = lo <= order <= hi
    check(
        "1",
        f"{method} final-doubling order",
        ok,
        f"measured {order:.4f}, required [{lo}, {hi}]",
    )


# --------------------------------------------------------------------------
# criterion 2: profile accuracy of the finite-volume scheme
# --------------------------------------------------------------------------

def test_criterion_2_fvm_matches_exact_profile(fvm_ex1):
    case, grid, solution = fvm_ex1
    exact = exact_concentration(case, 1.0, grid.midpoints)
    err = float(np.sum(np.abs(solution.snapshots[-1].values - exact) * grid.widths))
    rel = err / float(np.sum(np.abs(exact) * grid.widths))
    ok = rel <= 2e-2
    check("2", "fvm relative L1 at t=1", ok, f"measured {rel:.3e}, allowed 2e-2")


# --------------------------------------------------------------------------
# criterion 3: ex1 moments at the final time
# --------------------------------------------------------------------------

def test_criterion_3_fvm_moments(fvm_ex1):
    _, _, solution = fvm_ex1
    m0, m1, m2 = moments_over_time(solution.times, solution.snapshots).moments[-1]
    for label, value, target, tol in (
        ("fvm M0", m0, 2.0, 2e-2),
        ("fvm M1", m1, 1.0, 1e-2),
        ("fvm M2", m2, 1.0, 3e-2),
    ):
        ok, detail = within(value, target, tol)
        check("3", label, ok, detail)


@pytest.mark.parametrize("which", ["m0", "m1", "m2"])
def test_criterion_3_ham_moments(series_ex1, which):
    _, _, ham, _ = series_ex1
    snapshot = truncated_sum(ham, 5, 1.0)
    order = {"m0": 0, "m1": 1, "m2": 2}[which]
    target, tol = {"m0": (2.0, 2e-2), "m1": (1.0, 1e-2), "m2": (1.0, 3e-2)}[which]
    ok, detail = within(quad_moment(snapshot, order), target, tol)
    check("3", f"ham(alpha*) {which}", ok, detail)


def test_criterion_3_ahpm_moments(series_ex1):
    _, _, _, ahpm = series_ex1
    at_one = truncated_sum(ahpm, 5, 1.0)
    ok, detail = within(quad_moment(at_one, 0), 2.0, 2e-2)
    check("3", "ahpm M0", ok, detail)
    ok, detail = within(quad_moment(at_one, 1), 1.0, 1e-2)
    check("3", "ahpm M1", ok, detail)
    at_half = truncated_sum(ahpm, 5, 0.5)
    ok, detail = within(quad_moment(at_half, 2), 4.0 / 3.0, 5e-2)
    check("3", "ahpm M2 at t=0.5", ok, detail)


# --------------------------------------------------------------------------
# criterion 4: ex2 moments
# --------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["fvm", "ham", "ahpm"])
def test_criterion_4_ex2_moments(moments_ex2, method):
    _, _, values, _, _ = moments_ex2
    m0, m1 = values[method]
    ok, detail = within(m0, 1.2, 1e-2)
    check("4", f"{method} M0", ok, detail)
    ok, detail = within(m1, 2.0, 1e-2)
    check("4", f"{method} M1", ok, detail)


# --------------------------------------------------------------------------
# criterion 5: ex3 moments
# --------------------------------------------------------------------------

def test_criterion_5_fvm_moments(moments_ex3):
    case, _, solution, _, _ = moments_ex3
    m0, m1, m2 = moments_over_time(solution.times, solution.snapshots).moments[-1]
    for label, value, target, tol in (
        ("fvm M0", m0, 2.0, 2e-2),
        ("fvm M1", m1, 1.0, 1e-2),
        ("fvm M2", m2, exact_moment(case, 2, 0.5), 3e-2),
    ):
        ok, detail = within(value, target, tol)
        check("5", label, ok, detail)


def test_criterion_5_ahpm_moments(moments_ex3):
    _, _, _, _, ahpm = moments_ex3
    snapshot = truncated_sum(ahpm, 3, 0.5)
    ok, detail = within(quad_moment(snapshot, 0), 2.0, 2e-2)
    check("5", "ahpm M0", ok, detail)
    ok, detail = within(quad_moment(snapshot, 1), 1.0, 1e-2)
    check("5", "ahpm M1", ok, detail)


def test_criterion_5_ham_number_within_ten_percent(moments_ex3):
    _, _, _, ham, _ = moments_ex3
    snapshot = truncated_sum(ham, 3, 0.5)
    ok, detail = within(quad_moment(snapshot, 0), 2.0, 1e-1)
    check("5", "ham M0", ok, detail)


# --------------------------------------------------------------------------
# criterion 6: closed-form term equivalence
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_grid():
    return build_grid(ORACLE_RMAX, ORACLE_CELLS)


@pytest.fixture(scope="module")
def numeric_series(oracle_grid):
    series = {}
    for case_id, method in {(c, m) for c, m, _ in oracle_table()}:
        case = registry_case(case_id)
        top = max(
            order for c, mm, order in oracle_table() if (c, mm) == (case_id, method)
        )
        if method == "ham":
            series[(case_id, method)] = ham_terms(
                case, oracle_grid, top, case.reference_alpha
            )
        else:
            series[(case_id, method)] = ahpm_terms(case, oracle_grid, top)
    return series


@pytest.mark.parametrize("case_id,method,m", oracle_table())
def test_criterion_6_oracle_equivalence(numeric_series, oracle_grid, case_id, method, m):
    case = registry_case(case_id)
    alpha = case.reference_alpha if method == "ham" else None
    reference = oracle_terms(case_id, method, m, oracle_grid, alpha=alpha)
    numeric = numeric_series[(case_id, method)].terms[m]
    t_eval = case.tend
    rel = l1_distance(numeric.eval(t_eval), reference.eval(t_eval)) / l1_norm(
        reference.eval(t_eval)
    )
    ok = rel <= 1e-3
    check("6", f"{case_id}/{method}/m={m}", ok, f"relative L1 {rel:.2e}, allowed 1e-3")


# --------------------------------------------------------------------------
# criterion 7: expansion identity for the closed-form case
# --------------------------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_criterion_7_taylor_identity(numeric_series, oracle_grid, taylor_term, m):
    numeric = numeric_series[("ex1", "ahpm")].terms[m]
    reference = taylor_term("ex1", m, oracle_grid)
    rel = l1_distance(numeric.eval(1.0), reference.eval(1.0)) / l1_norm(
        reference.eval(1.0)
    )
    ok = rel <= 1e-3
    check("7", f"ahpm m={m}", ok, f"relative L1 {rel:.2e}, allowed 1e-3")


# --------------------------------------------------------------------------
# criterion 8: control-parameter optimisation
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "case_id,order,lo,hi",
    [("ex1", 5, -0.90, -0.75), ("ex2", 5, -1.0, -0.90), ("ex3", 3, -0.90, -0.75)],
)
def test_criterion_8_optimal_alpha_window(alpha_stars, case_id, order, lo, hi):
    alpha = alpha_stars[case_id].alpha
    ok = lo <= alpha <= hi
    check(
        "8",
        f"{case_id} alpha* window",
        ok,
        f"alpha* {alpha:.4f}, required [{lo}, {hi}]",
    )


@pytest.mark.parametrize("case_id,order", [("ex1", 5), ("ex2", 5), ("ex3", 3)])
def test_criterion_8_optimum_beats_reference_points(alpha_stars, case_id, order):
    case = registry_case(case_id)
    grid = build_grid(case.rmax, 200)
    best = alpha_stars[case_id].averaged_residual
    bound = min(
        averaged_residual(case, grid, order, -1.0),
        averaged_residual(case, grid, order, -0.5),
    )
    ok = best <= bound
    check(
        "8",
        f"{case_id} residual optimality",
        ok,
        f"A(alpha*) {best:.3e} <= min reference {bound:.3e}",
    )


# --------------------------------------------------------------------------
# criterion 9: property suites
# --------------------------------------------------------------------------

@pytest.mark.parametrize("case_id", ["ex1", "ex2", "ex3"])
def test_criterion_9_mass_drift(case_id):
    case = registry_case(case_id)
    grid = build_grid(case.rmax, MOMENT_CELLS)
    times = tuple(np.linspace(0.0, case.tend, 6))
    solution = integrate(case, grid, times)
    mass = moments_over_time(solution.times, solution.snapshots).moments[:, 1]
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    ok = drift <= 1e-2
    check("9", f"{case_id} mass drift", ok, f"max drift {drift:.3e}, allowed 1e-2")


def test_criterion_9_consecutive_term_norms(moments_ex2):
    _, _, _, ham, ahpm = moments_ex2
    for series, label in ((ham, "ham"), (ahpm, "ahpm")):
        norms = [consecutive_term_norm(series, m) for m in (3, 4, 5)]
        ok = norms[0] > norms[1] > norms[2]
        check(
            "9",
            f"ex2 {label} term norms decreasing",
            ok,
            " > ".join(f"{v:.3e}" for v in norms),
        )


def test_criterion_9_rhs_equivalence(rng):
    for case_id in ("ex1", "ex2", "ex3"):
        case = registry_case(case_id)
        grid = build_grid(case.rmax, 20)
        weights = precompute_weights(grid, case.breakage)
        f = rng.uniform(0.0, 1.0, 20)
        fast = CollisionOperator(weights, case.kernel).taylor_rows(f, 1)[1]
        slow = brute_force_rhs(grid, case.breakage, case.kernel, f)
        gap = float(np.max(np.abs(fast - slow)))
        ok = gap <= 1e-12
        check("9", f"{case_id} rhs brute force", ok, f"max abs gap {gap:.2e}")


def test_criterion_9_csv_determinism(tmp_path):
    args = [
        "solve", "--case", "ex2", "--method", "ham", "--order", "3",
        "--cells", "90", "--alpha", "-0.969", "--times", "0,0.5,1",
    ]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("concentration.csv", "moments.csv")
    )
    check("9", "csv determinism", same, "byte-identical bodies across reruns")
