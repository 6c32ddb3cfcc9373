"""Correctness checks on the files one ``cbelab`` invocation writes.

The checks read what a user receives (the CSV files and ``run.json``),
rebuild the accuracy figures from the closed forms of the shipped cases and
hold them to the tolerances of the acceptance suite in
``tests/test_acceptance.py``.  The suite's six by-design failures (README,
"Acceptance status") are reported as figures but not gated.  Only the
standard library is used, so the checks share no code with the solvers they
check.

Every check raises ``OutputError`` on a missing or short file, a value that is
not finite, a malformed row or a figure outside its tolerance; otherwise it
returns the accuracy figures and the SHA-256 of each CSV body (the ``# config``
line stripped).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RMAX = {"ex1": 10.0, "ex2": 20.0, "ex3": 20.0}
TEND = {"ex1": 1.0, "ex2": 1.0, "ex3": 0.5}
OUTPUT_TIMES = 11  # the CLI samples np.linspace(0, tend, 11)
EOC_CELLS = (30, 60, 120, 240)

CONC_HEADER = ("case", "method", "order", "alpha", "time", "size", "value")
MOMENT_HEADER = ("case", "method", "time", "m0", "m1", "m2")
_TEXT_COLUMNS = ("case", "method")


class OutputError(Exception):
    """An output file is missing, malformed, not finite or out of tolerance."""


def exact_moments(case: str, t: float) -> tuple:
    """Closed-form moments M0, M1, M2 (None where the case has none)."""
    if case == "ex1":
        return 1.0 + t, 1.0, 2.0 / (1.0 + t)
    if case == "ex2":
        return 1.0 + t / 5.0, 2.0, None
    return 1.0 / (1.0 - t), 1.0, 2.0 * (1.0 - t) ** (12.0 / 25.0)


def ex1_concentration(t: float, x: float) -> float:
    return (1.0 + t) ** 2 * math.exp(-x * (1.0 + t))


# Acceptance tolerances, (moment order, time, relative tolerance), per case
# and method: criteria 3 (ex1), 4 (ex2) and 5 (ex3).  Left out:
# - the by-design failures (ex1 ham M2, ex3 ahpm M0);
# - HAM in ``reproduce``: the suite checks HAM at the optimised control
#   parameter, which only ``solve --alpha auto`` uses, and ``reproduce`` runs
#   the published one;
# - ex3 fvm mass (M1 and the criterion-9 drift): the discrete-fragment weights
#   drop each fragment whole into one cell, so mass drifts by 0.8 % at the
#   suite's 300 cells and by up to 1.1 % at 270-290 cells.  The drift is
#   reported as ``mass_drift.ex3`` instead.
MOMENT_GATES = {
    ("ex1", "fvm"): ((0, 1.0, 2e-2), (1, 1.0, 1e-2), (2, 1.0, 3e-2)),
    ("ex1", "ham"): ((0, 1.0, 2e-2), (1, 1.0, 1e-2)),
    ("ex1", "ahpm"): ((0, 1.0, 2e-2), (1, 1.0, 1e-2), (2, 0.5, 5e-2)),
    ("ex2", "fvm"): ((0, 1.0, 1e-2), (1, 1.0, 1e-2)),
    ("ex2", "ahpm"): ((0, 1.0, 1e-2), (1, 1.0, 1e-2)),
    ("ex3", "fvm"): ((0, 0.5, 2e-2), (2, 0.5, 3e-2)),
}
PROFILE_TOL = 2e-2  # criterion 2: fvm relative L1 at the ex1 horizon
MASS_DRIFT_TOL = 1e-2  # criterion 9
ALPHA_WINDOW = (-0.90, -0.75)  # criterion 8, ex1


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def _cell(text: str, column: str, where: str):
    if column in _TEXT_COLUMNS:
        return text
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise OutputError(f"{where}: {column}={text!r} is not a number") from None
    if not math.isfinite(value):
        raise OutputError(f"{where}: {column}={text!r} is not finite")
    return value


def read_csv(path: Path, header: tuple, rows: int, digests: dict) -> list[tuple]:
    """Parse a CSV written by the CLI and record the digest of its body."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from None
    if not text.endswith("\n"):
        raise OutputError(f"{path.name}: truncated (no final newline)")
    lines = text[:-1].split("\n")
    if not lines[0].startswith("# config ") or len(lines) < 2:
        raise OutputError(f"{path.name}: missing config line or header")
    if tuple(lines[1].split(",")) != header:
        raise OutputError(f"{path.name}: header {lines[1]!r}")
    body = lines[2:]
    if len(body) != rows:
        raise OutputError(f"{path.name}: {len(body)} rows, expected {rows}")
    parsed = []
    for lineno, line in enumerate(body, start=3):
        cells = line.split(",")
        if len(cells) != len(header):
            raise OutputError(f"{path.name}:{lineno}: {len(cells)} cells")
        where = f"{path.name}:{lineno}"
        parsed.append(tuple(_cell(c, col, where) for c, col in zip(cells, header)))
    name = f"{path.parent.name}/{path.name}"
    digests[name] = hashlib.sha256(text.split("\n", 1)[1].encode()).hexdigest()
    return parsed


def _same_time(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


def _within(label: str, value, target: float, tol: float) -> None:
    _require(value is not None, f"{label}: missing value")
    gap = abs(value - target) / abs(target)
    _require(gap <= tol, f"{label}: {value:.6g} vs {target:.6g} ({gap:.2%} > {tol:.0%})")


# --------------------------------------------------------------------------
# profiles and moments
# --------------------------------------------------------------------------

def profile(rows, case: str, method: str, t: float, cells: int, size_col: int = 5) -> list[float]:
    """Values of one method at one time, checked to sit on the uniform grid."""
    picked = [r for r in rows if r[1] == method and _same_time(r[size_col - 1], t)]
    _require(len(picked) == cells, f"{case}/{method} at t={t}: {len(picked)} cells, expected {cells}")
    width = RMAX[case] / cells
    for i, row in enumerate(picked):
        _require(row[0] == case, f"{method}: case {row[0]!r}, expected {case!r}")
        _require(
            abs(row[size_col] - (i + 0.5) * width) <= 1e-9 * RMAX[case],
            f"{case}/{method}: size {row[size_col]} is not midpoint {i} of the grid",
        )
        _require(row[-1] is not None, f"{case}/{method}: empty value in cell {i}")
    return [row[-1] for row in picked]


def rel_l1_ex1(values: list[float], t: float) -> float:
    """Relative L1 distance from the ex1 closed form on a uniform grid.

    Cell widths are equal, so the width weights cancel from the ratio.
    """
    width = RMAX["ex1"] / len(values)
    exact = [ex1_concentration(t, (i + 0.5) * width) for i in range(len(values))]
    return sum(abs(v - e) for v, e in zip(values, exact)) / sum(exact)


def moment_series(rows, case: str, method: str, times: int) -> list[tuple]:
    picked = [r for r in rows if r[0] == case and r[1] == method]
    _require(len(picked) == times, f"{case}/{method}: {len(picked)} moment rows, expected {times}")
    for a, b in zip(picked, picked[1:]):
        _require(a[2] < b[2], f"{case}/{method}: moment times not ascending")
    return picked


def mass_drift(series: list[tuple]) -> float:
    m1 = [row[4] for row in series]
    _require(all(v is not None for v in m1), "missing M1 value")
    return max(abs(v - m1[0]) for v in m1) / m1[0]


def gate_moments(series: list[tuple], case: str, method: str) -> None:
    for order, t, tol in MOMENT_GATES.get((case, method), ()):
        row = next((r for r in series if _same_time(r[2], t)), None)
        _require(row is not None, f"{case}/{method}: no moments at t={t}")
        _within(f"{case}/{method} M{order} at t={t}", row[3 + order], exact_moments(case, t)[order], tol)


def _exact_rows_match(series: list[tuple], case: str) -> None:
    for row in series:
        for order, target in enumerate(exact_moments(case, row[2])):
            value = row[3 + order]
            if target is None:
                _require(value is None, f"{case}/exact M{order}: unexpected value")
            else:
                _within(f"{case}/exact M{order} at t={row[2]}", value, target, 1e-9)


# --------------------------------------------------------------------------
# workload checks
# --------------------------------------------------------------------------

def check_solve(outdir: Path, cells: int, method: str) -> tuple[dict, dict]:
    """``cbelab solve --case ex1 --method fvm|ham`` with the default output times."""
    digests: dict = {}
    figures: dict = {}
    conc = read_csv(outdir / "concentration.csv", CONC_HEADER, OUTPUT_TIMES * cells, digests)
    moments = moment_series(
        read_csv(outdir / "moments.csv", MOMENT_HEADER, OUTPUT_TIMES, digests), "ex1", method, OUTPUT_TIMES
    )
    width = RMAX["ex1"] / cells
    for row in moments:
        values = profile(conc, "ex1", method, row[2], cells)
        for order in (0, 1, 2):
            recomputed = sum(((i + 0.5) * width) ** order * v for i, v in enumerate(values)) * width
            _require(
                abs(recomputed - row[3 + order]) <= 1e-9 * max(abs(recomputed), 1e-300),
                f"moments.csv M{order} at t={row[2]} disagrees with concentration.csv",
            )
    err = rel_l1_ex1(profile(conc, "ex1", method, TEND["ex1"], cells), TEND["ex1"])
    figures[f"err_l1.{method}"] = err
    figures["mass_drift.ex1"] = mass_drift(moments)
    gate_moments(moments, "ex1", method)
    try:
        run = json.loads((outdir / "run.json").read_text())
    except (OSError, ValueError) as exc:
        raise OutputError(f"run.json: {exc}") from None
    _require(run.get("config", {}).get("cells") == cells, "run.json: cell count")
    if method == "fvm":
        _require(err <= PROFILE_TOL, f"fvm relative L1 {err:.3e} > {PROFILE_TOL}")
        _require(figures["mass_drift.ex1"] <= MASS_DRIFT_TOL, "fvm mass drift")
        steps = run.get("fvm_steps")
        _require(isinstance(steps, int) and steps >= 1, f"run.json: fvm_steps={steps!r}")
        figures["fvm_steps"] = steps
    else:
        alpha, resid = run.get("alpha_star"), run.get("averaged_residual")
        _require(isinstance(alpha, float) and ALPHA_WINDOW[0] <= alpha <= ALPHA_WINDOW[1],
                 f"run.json: alpha_star={alpha!r} outside {ALPHA_WINDOW}")
        _require(isinstance(resid, float) and math.isfinite(resid) and resid > 0,
                 f"run.json: averaged_residual={resid!r}")
        _require(all(abs(r[3] - alpha) <= 1e-11 for r in conc), "concentration.csv alpha column")
        figures["alpha_star"] = alpha
        figures["alpha_residual"] = resid
    return figures, digests


def check_reproduce(outdir: Path, cells: int) -> tuple[dict, dict]:
    """``cbelab reproduce all --cells N``: every figure directory."""
    digests: dict = {}
    figures: dict = {}

    eoc = read_csv(outdir / "table1" / "eoc.csv", ("case", "method", "cells", "error", "eoc"), 12, digests)
    for method in ("fvm", "ham", "ahpm"):
        rows = [r for r in eoc if r[1] == method]
        _require([r[2] for r in rows] == list(EOC_CELLS), f"table1/{method}: cell counts")
        errors = [r[3] for r in rows]
        _require(all(e is not None and e > 0 for e in errors), f"table1/{method}: errors")
        _require(all(a > b for a, b in zip(errors, errors[1:])), f"table1/{method}: errors not decreasing")

    fig1 = read_csv(outdir / "fig1" / "concentration.csv", CONC_HEADER, 4 * cells, digests)
    exact = profile(fig1, "ex1", "exact", 1.0, cells)
    _require(rel_l1_ex1(exact, 1.0) <= 1e-10, "fig1 exact rows differ from the closed form")
    fig1_values = {}
    for method in ("fvm", "ham", "ahpm"):
        fig1_values[method] = profile(fig1, "ex1", method, 1.0, cells)
        figures[f"err_l1.{method}"] = rel_l1_ex1(fig1_values[method], 1.0)
    _require(figures["err_l1.fvm"] <= PROFILE_TOL, f"fig1 fvm relative L1 {figures['err_l1.fvm']:.3e}")

    fig7 = read_csv(outdir / "fig7" / "abs_error.csv", ("case", "method", "time", "size", "abs_error"), 3 * cells, digests)
    for method, values in fig1_values.items():
        errs = profile(fig7, "ex1", method, 1.0, cells, size_col=3)
        gap = max(abs(e - abs(v - x)) for e, v, x in zip(errs, values, exact))
        _require(gap <= 1e-9 * max(exact), f"fig7/{method} disagrees with fig1")

    for fig, case in (("fig3a", "ex2"), ("fig5", "ex3")):
        rows = read_csv(outdir / fig / "concentration.csv", CONC_HEADER, 3 * cells, digests)
        for method in ("fvm", "ham", "ahpm"):
            profile(rows, case, method, TEND[case], cells)

    norms = read_csv(outdir / "fig3b" / "term_norms.csv", ("case", "method", "m", "l1_norm"), 10, digests)
    for method in ("ham", "ahpm"):
        values = [r[3] for r in norms if r[0] == "ex2" and r[1] == method]
        _require(len(values) == 5 and all(v is not None and v > 0 for v in values), f"fig3b/{method}: norms")
        _require(values[2] > values[3] > values[4], f"fig3b/{method}: term norms 3..5 not decreasing")

    for fig, case in (("fig2", "ex1"), ("fig4", "ex2"), ("fig6", "ex3")):
        rows = read_csv(outdir / fig / "moments.csv", MOMENT_HEADER, 4 * OUTPUT_TIMES, digests)
        _exact_rows_match(moment_series(rows, case, "exact", OUTPUT_TIMES), case)
        moment_series(rows, case, "ham", OUTPUT_TIMES)
        for method in ("fvm", "ahpm"):
            series = moment_series(rows, case, method, OUTPUT_TIMES)
            gate_moments(series, case, method)
            if case == "ex3" and method == "fvm":
                figures["mass_drift.ex3"] = mass_drift(series)
    return figures, digests
