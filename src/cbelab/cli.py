"""Command-line front end: case orchestration and deterministic CSV/JSON emission.

Subcommands: ``solve``, ``eoc``, ``reproduce``, ``optimize-alpha``, ``validate``.
Exit codes: 0 success, 1 validation failure, 2 usage/config error, 3 numerical
failure.  CSV bodies are byte-stable across runs for identical configurations;
the only header line is a comment carrying the config hash.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

# the interpreter's built-in SHA-256, as the stdlib's random.py takes its sha512:
# hashlib maps OpenSSL's libcrypto (about 3.7 MB of peak RSS) for one digest a run
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .cases import (
    CaseSpec,
    ConstantKernel,
    ProductKernel,
    case_ids,
    exact_concentration,
    exact_moment,
    kernel_eval,
    registry_case,
    with_overrides,
)
from .errors import (
    CbelabError,
    DivergenceError,
    DomainError,
    NumericalError,
)
from .collision import CollisionOperator, brute_force_rhs
from .fvm import integrate, precompute_weights
from .grid import Grid, GridFunction, build_grid, l1_distance, l1_norm
from .metrics import (
    abs_error_grid,
    consecutive_term_norm,
    eoc,
    moments_over_time,
    number_error,
    reference_moment,
)
from .series import (
    ahpm_terms,
    ham_terms,
    optimize_alpha,
    oracle_table,
    oracle_terms,
    truncated_sum,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_METHODS = ("fvm", "ham", "ahpm")
# figure id: (case, series order, table kind); the kinds are in ``_TABLES``
_FIGURES = {
    "table1": ("ex1", 5, "eoc"),
    "fig1": ("ex1", 5, "concentration"),
    "fig2": ("ex1", 5, "moments"),
    "fig3a": ("ex2", 5, "concentration"),
    "fig3b": ("ex2", 5, "term_norms"),
    "fig4": ("ex2", 5, "moments"),
    "fig5": ("ex3", 3, "concentration"),
    "fig6": ("ex3", 3, "moments"),
    "fig7": ("ex1", 5, "abs_error"),
}


class UsageError(CbelabError):
    """Bad flags or configuration; maps to exit code 2."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def _parse_times(text: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("empty times list")
    return values


def _parse_cells(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _setting(default=MISSING, *, parse=str, help=None, choices=None, flag=None):
    """A ``RunConfig`` field with the parser that reads it from flags and config
    files alike, its help text and choices, and its flag (default ``--key``)."""
    meta = {"parse": parse, "help": help, "choices": choices, "flag": flag}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one command invocation; each field is one flag
    and one config-file key."""

    case: str = _setting(help=f"benchmark case id ({', '.join(case_ids())})")
    method: str = _setting("fvm", choices=_METHODS)
    order: int = _setting(5, parse=int, help="series truncation order")
    cells: int = _setting(300, parse=int, help="grid cell count")
    grid_scheme: str = _setting("uniform", choices=("uniform", "geometric"))
    eps_min: float | None = _setting(None, parse=float, help="first interior edge (geometric grids)")
    alpha: str = _setting("auto", help="'auto' or a fixed value in [-1, 0)")
    rmax: float | None = _setting(None, parse=float, help="truncation radius override")
    tend: float | None = _setting(None, parse=float, help="time horizon override")
    times: tuple[float, ...] | None = _setting(None, parse=_parse_times, help="comma-separated output times")
    outdir: str = _setting("runs", help="output directory", flag="--out")

    def validated(self) -> "RunConfig":
        for setting in fields(self):
            value, choices = getattr(self, setting.name), setting.metadata["choices"]
            if choices and value not in choices:
                raise UsageError(f"{setting.name} must be one of {choices}, got {value!r}")
        if self.order < 0:
            raise UsageError("order must be non-negative")
        if self.cells < 2:
            raise UsageError("cells must be at least 2")
        if self.eps_min is not None and self.grid_scheme == "uniform":
            raise UsageError("the uniform grid scheme does not use --eps-min")
        if self.alpha != "auto":
            try:
                value = float(self.alpha)
            except ValueError:
                raise UsageError(f"cannot parse alpha={self.alpha!r} as a number") from None
            if not (-1.0 <= value < 0.0):
                raise UsageError(f"fixed alpha must lie in [-1, 0), got {value}")
        case = self.resolved_case()
        # the same bounds ``integrate`` enforces, for every method
        if self.times is not None and not (
            all(0.0 <= t and case.within_horizon(t) for t in self.times)
            and all(a < b for a, b in zip(self.times, self.times[1:]))
        ):
            raise UsageError(
                f"times must be non-negative, strictly ascending and at most the "
                f"horizon {case.tend}, got {list(self.times)}"
            )
        return self

    def resolved_case(self) -> CaseSpec:
        return with_overrides(registry_case(self.case), rmax=self.rmax, tend=self.tend)

    def hash(self, **extra) -> str:
        # identifies the result-determining settings, with those a command reads
        # beside the config (``extra``); the output path is not one
        values = {k: v for k, v in asdict(self).items() if k != "outdir"} | extra
        canon = "\n".join(f"{key}={value}" for key, value in sorted(values.items()))
        return sha256(canon.encode()).hexdigest()[:12]


_SETTINGS = {setting.name: setting for setting in fields(RunConfig)}


def _flag(key: str) -> str:
    return _SETTINGS[key].metadata["flag"] or "--" + key.replace("_", "-")


_EOC_UNREAD = {"cells", "grid_scheme", "eps_min", "times"}
# command: {method: settings it does not read}; a method missing from a row is
# refused.  eoc runs uniform grids at its --cell-list counts and reads errors at
# the horizon; optimize-alpha optimises ham whatever the method (fvm is the
# default).
_UNREAD = {
    "solve": {"fvm": {"order", "alpha"}, "ham": set(), "ahpm": {"alpha"}},
    "eoc": {
        "fvm": _EOC_UNREAD | {"order", "alpha"},
        "ham": _EOC_UNREAD,
        "ahpm": _EOC_UNREAD | {"alpha"},
    },
    "optimize-alpha": {"fvm": {"alpha", "times"}, "ham": {"alpha", "times"}},
}


def _reject_unread(command: str, config: RunConfig) -> None:
    """Refuse settings ``command`` does not read, from flags or a config file:
    they would change the config hash but not the result."""
    row = _UNREAD[command]
    if config.method not in row:
        raise UsageError(f"{command} does not use --method {config.method}")
    unread = [
        key for key in _SETTINGS
        if key in row[config.method] and getattr(config, key) != _SETTINGS[key].default
    ]
    if unread:
        raise UsageError(f"{command} does not use {', '.join(map(_flag, unread))}")


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key=value`` configuration; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def build_config(file_values: dict[str, str], cli_values: dict) -> RunConfig:
    """Merge config-file entries with CLI flags; flags win."""
    merged: dict = {}
    for key, value in file_values.items():
        if key not in _SETTINGS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            merged[key] = _SETTINGS[key].metadata["parse"](value)
        except ValueError:
            raise UsageError(f"bad value for config key {key!r}: {value!r}") from None
    for key, value in cli_values.items():
        if value is not None:
            merged[key] = value
    if "case" not in merged:
        raise UsageError("missing case id in config")
    return RunConfig(**merged).validated()


# --------------------------------------------------------------------------
# emission helpers
# --------------------------------------------------------------------------

def _text(value) -> str:
    """One CSV entry: a finite float as ``%.12g``, None as empty, else ``str``."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DivergenceError(f"non-finite value {value} in CSV output")
        return f"{value:.12g}"
    return str(value)


def _is_float64(values) -> bool:
    return isinstance(values, np.ndarray) and values.dtype == np.float64


def _float_entries(values: np.ndarray) -> list[float]:
    """A float64 array's entries, checked for finiteness at once; a CSV file
    formats each float64 column from this list once."""
    finite = np.isfinite(values)
    if not finite.all():
        raise DivergenceError(f"non-finite value {values[~finite][0]} in CSV output")
    return values.tolist()


def _column(values, repeated: dict[bytes, list[str] | None]) -> tuple[str, list]:
    """A column's ``%`` spec and entries with ``_text``'s spelling.

    A float64 array is checked at once and skips ``_text``; a float32 one does
    not (it writes ``str``).  A float64 column whose bytes are a key of
    ``repeated`` is formatted on first use, kept there and reused as text.
    """
    if not _is_float64(values):
        return "%s", [_text(value) for value in values]
    key = values.tobytes()
    if key not in repeated:
        return "%.12g", _float_entries(values)
    if repeated[key] is None:
        repeated[key] = [f"{value:.12g}" for value in _float_entries(values)]
    return "%s", repeated[key]


def _write_csv(path: Path, config_hash: str, header: list[str], blocks) -> None:
    """Write ``(lead, columns)`` blocks: one row per index of the equal-length
    ``columns``, each row starting with the block's ``lead`` values; one ``%``
    operation formats a whole block.

    A float64 column that occurs more than once in the file (the size grid
    beside each snapshot) is formatted once.  Columns are matched by bytes,
    not by value: ``-0.0 == 0.0`` but the two are written differently.  Each
    block goes to ``<name>.partial`` as soon as it is formatted, and that file
    replaces ``path`` after the last block; on any error it is removed, and
    ``path`` is left as it was.
    """
    blocks = [(lead, tuple(columns)) for lead, columns in blocks]
    counts = Counter(
        values.tobytes() for _, columns in blocks for values in columns if _is_float64(values)
    )
    repeated = {key: None for key, count in counts.items() if count > 1}
    partial = path.with_name(path.name + ".partial")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(partial, "w") as out:
            out.write(f"# config {config_hash}\n{','.join(header)}\n")
            for lead, columns in blocks:
                prefix = "".join(_text(value) + "," for value in lead).replace("%", "%%")
                specs, entries = zip(*(_column(values, repeated) for values in columns))
                # row-major entries; an extended slice refuses a column of another length
                rows, width = len(entries[0]), len(entries)
                flat = [None] * (rows * width)
                for i, column in enumerate(entries):
                    flat[i::width] = column
                out.write((prefix + ",".join(specs) + "\n") * rows % tuple(flat))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_run_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# solver runs
# --------------------------------------------------------------------------

_CONCENTRATION_HEADER = ["case", "method", "order", "alpha", "time", "size", "value"]
_MOMENT_HEADER = ["case", "method", "time", "m0", "m1", "m2"]
_EOC_HEADER = ["case", "method", "cells", "error", "eoc"]
_TABLE1_CELLS = (30, 60, 120, 240)


def _output_times(case: CaseSpec, times=None) -> tuple[float, ...]:
    """``times``, or 11 equally spaced times up to the horizon; always from 0."""
    times = tuple(times or np.linspace(0.0, case.tend, 11))
    return times if times[0] == 0.0 else (0.0,) + times


def _run(case: CaseSpec, grid, method: str, order: int, alpha: float | None, times):
    """Profiles of one method at ``times`` (none if empty), plus its FVM solution or series.

    The one place that dispatches on the method; only ham reads ``alpha``.
    """
    if method == "fvm":
        solution = integrate(case, grid, times)
        return list(solution.snapshots), solution
    if method == "ham":
        series = ham_terms(case, grid, order, alpha)
    else:
        series = ahpm_terms(case, grid, order)
    return list(truncated_sum(series, order, times) if len(times) else ()), series


class _Runs:
    """Runs on uniform grids, each (case, method, order, cells, output times) computed
    at most once per invocation.

    There is one grid per (R, cells), which every run on it shares (ex2 and ex3
    share R = 20), so the series' operator and the projected initial condition
    are built once per grid and law.  The output times are ``_output_times``
    of ``times``: by default the 11 up to the horizon, which a series sums in
    one ``truncated_sum`` call; table 1 asks for the horizon alone.  The FVM's
    Taylor stages do not depend on the output times, and a series sum is
    bit-identical per time, so the horizon profile is the same either way.
    ham uses ``alpha``, or the case's published value when it is None.
    """

    def __init__(self, alpha: float | None = None) -> None:
        self.alpha = alpha
        self._grids: dict[tuple, Grid] = {}
        self._done: dict[tuple, tuple] = {}

    def __call__(self, case: CaseSpec, method: str, order: int, cells: int, times=None):
        """``(grid, profiles, FVM solution or series)`` of one run."""
        times = _output_times(case, times)
        key = (case.id, method, order, cells, times)
        if key not in self._done:
            if (case.rmax, cells) not in self._grids:
                self._grids[case.rmax, cells] = build_grid(case.rmax, cells)
            grid = self._grids[case.rmax, cells]
            alpha = case.reference_alpha if self.alpha is None else self.alpha
            self._done[key] = (grid, *_run(case, grid, method, order, alpha, times))
        return self._done[key]


def _concentration_blocks(case, method, order, alpha, grid, times, profiles) -> list[tuple]:
    # fvm has no series order; only ham has a control parameter
    lead = (case.id, method, None if method == "fvm" else order, alpha if method == "ham" else None)
    return [(lead + (t,), (grid.midpoints, profile.values)) for t, profile in zip(times, profiles)]


def _moment_block(case, method, times, profiles) -> tuple:
    return (case.id, method), (times, *moments_over_time(times, profiles).moments.T)


def _eoc_block(case, method: str, cells, order: int, runs: _Runs) -> tuple:
    """Total-number error at the horizon on doubling grids, with its order; each run
    is evaluated at 0 and the horizon only."""
    errors = []
    for count in cells:
        grid, profiles, _ = runs(case, method, order, count, (case.tend,))
        errors.append(number_error(profiles[-1], case, case.tend))
    orders = [None] + [eoc(a, b) for a, b in zip(errors, errors[1:])]
    return (case.id, method), (cells, errors, orders)


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def cmd_solve(config: RunConfig) -> int:
    started = time.perf_counter()
    case = config.resolved_case()
    grid = build_grid(case.rmax, config.cells, config.grid_scheme, config.eps_min)
    times = _output_times(case, config.times)
    chash = config.hash()
    payload = {"config": asdict(config), "config_hash": chash, "version": __version__}
    alpha = None
    if config.method == "ham":
        if config.alpha == "auto":
            result = optimize_alpha(case, grid, config.order)
            alpha = result.alpha
            payload["averaged_residual"] = result.averaged_residual
        else:
            alpha = float(config.alpha)
        payload["alpha_star"] = alpha
    profiles, solved = _run(case, grid, config.method, config.order, alpha, times)
    if config.method == "fvm":
        payload["fvm_steps"] = solved.step_count
        payload["rhs_evaluations"] = solved.rhs_evaluations
    outdir = Path(config.outdir)
    _write_csv(
        outdir / "concentration.csv",
        chash,
        _CONCENTRATION_HEADER,
        _concentration_blocks(case, config.method, config.order, alpha, grid, times, profiles),
    )
    _write_csv(
        outdir / "moments.csv", chash, _MOMENT_HEADER, [_moment_block(case, config.method, times, profiles)]
    )
    payload["wall_time_s"] = round(time.perf_counter() - started, 6)
    _write_run_json(outdir / "run.json", payload)
    return EXIT_OK


# --------------------------------------------------------------------------
# eoc
# --------------------------------------------------------------------------

def cmd_eoc(config: RunConfig, cells: list[int]) -> int:
    case = config.resolved_case()
    if case.exact.concentration is None:
        raise UsageError(
            f"case {case.id!r} has no exact concentration; convergence needs one"
        )
    if len(cells) < 2:
        raise UsageError("need at least two cell counts")
    if any(b != 2 * a for a, b in zip(cells, cells[1:])):
        raise UsageError(f"cell counts must double, got {cells}")
    # 'auto' means the published control parameter, not an optimised one
    runs = _Runs(None if config.alpha == "auto" else float(config.alpha))
    _write_csv(
        Path(config.outdir) / "eoc.csv",
        config.hash(cell_list=tuple(cells)),
        _EOC_HEADER,
        [_eoc_block(case, config.method, cells, config.order, runs)],
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# reproduce
# --------------------------------------------------------------------------
# Table builders take (case, series order, cells, runs) and return the blocks
# of ``_write_csv``; every method runs at the published control parameter.

def _eoc_table(case, order, cells, runs) -> list[tuple]:
    return [_eoc_block(case, method, _TABLE1_CELLS, order, runs) for method in _METHODS]


def _concentration_table(case, order, cells, runs) -> list[tuple]:
    blocks = []
    for method in _METHODS:
        grid, profiles, _ = runs(case, method, order, cells)
        blocks += _concentration_blocks(
            case, method, order, case.reference_alpha, grid, [case.tend], profiles[-1:]
        )
    if case.exact.concentration is not None:
        exact = GridFunction(grid, exact_concentration(case, case.tend, grid.midpoints))
        blocks += _concentration_blocks(case, "exact", None, None, grid, [case.tend], [exact])
    return blocks


def _exact_moment_or_none(case, n: int, t: float) -> float | None:
    try:
        return exact_moment(case, n, t)
    except CbelabError:
        return None


def _moment_table(case, order, cells, runs) -> list[tuple]:
    times = _output_times(case)
    blocks = [
        _moment_block(case, method, times, runs(case, method, order, cells)[1]) for method in _METHODS
    ]
    exact = ([_exact_moment_or_none(case, n, float(t)) for t in times] for n in (0, 1, 2))
    return blocks + [((case.id, "exact"), (times, *exact))]


def _term_norm_table(case, order, cells, runs) -> list[tuple]:
    ms = range(1, order + 1)
    blocks = []
    for method in ("ham", "ahpm"):
        series = runs(case, method, order, cells)[2]
        blocks.append(((case.id, method), (ms, [consecutive_term_norm(series, m) for m in ms])))
    return blocks


def _abs_error_table(case, order, cells, runs) -> list[tuple]:
    blocks = []
    for method in _METHODS:
        grid, profiles, _ = runs(case, method, order, cells)
        err = abs_error_grid(profiles[-1], case, case.tend)
        blocks.append(((case.id, method, case.tend), (grid.midpoints, err.values)))
    return blocks


# table kind: (file name, CSV header, table builder)
_TABLES = {
    "eoc": ("eoc.csv", _EOC_HEADER, _eoc_table),
    "concentration": ("concentration.csv", _CONCENTRATION_HEADER, _concentration_table),
    "moments": ("moments.csv", _MOMENT_HEADER, _moment_table),
    "term_norms": ("term_norms.csv", ["case", "method", "m", "l1_norm"], _term_norm_table),
    "abs_error": ("abs_error.csv", ["case", "method", "time", "size", "abs_error"], _abs_error_table),
}


def cmd_reproduce(target: str, outdir_root: str, cells: int = RunConfig.cells) -> int:
    if target != "all" and target not in _FIGURES:
        raise UsageError(f"unknown figure id {target!r}; known: all, {', '.join(_FIGURES)}")
    targets = list(_FIGURES) if target == "all" else [target]
    # validated before the first figure, so bad settings leave no file behind
    chash = RunConfig(case="ex1", cells=cells, outdir=outdir_root).validated().hash()
    runs = _Runs()
    for name in targets:
        case_id, order, kind = _FIGURES[name]
        filename, header, build_table = _TABLES[kind]
        blocks = build_table(registry_case(case_id), order, cells, runs)
        _write_csv(Path(outdir_root) / name / filename, chash, header, blocks)
    return EXIT_OK


# --------------------------------------------------------------------------
# optimize-alpha
# --------------------------------------------------------------------------

def cmd_optimize_alpha(config: RunConfig) -> int:
    started = time.perf_counter()
    case = config.resolved_case()
    grid = build_grid(case.rmax, config.cells, config.grid_scheme, config.eps_min)
    result = optimize_alpha(case, grid, config.order)
    payload = {
        "config": asdict(config),
        "config_hash": config.hash(),
        "case": case.id,
        "order": config.order,
        "alpha_star": result.alpha,
        "averaged_residual": result.averaged_residual,
        "reference_alpha": case.reference_alpha,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    _write_run_json(Path(config.outdir) / "alpha.json", payload)
    print(f"alpha* = {result.alpha:.6f}  averaged residual = {result.averaged_residual:.6e}")
    return EXIT_OK


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def _validation_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(20240521)

    pairs = rng.uniform(1e-3, 50.0, size=(1000, 2))
    kernels = [ProductKernel(1.0), ProductKernel(0.05), ConstantKernel(1.0)]
    sym_ok = all(
        kernel_eval(k, x, y) == kernel_eval(k, y, x) and kernel_eval(k, x, y) >= 0
        for k in kernels
        for x, y in pairs[:200]
    )
    checks.append(("kernel-symmetry", sym_ok, "K(x,y) == K(y,x) >= 0"))

    case1 = registry_case("ex1")
    wide = build_grid(20.0, 200)
    moment_ok = True
    for n in (0, 1, 2):
        target = exact_moment(case1, n, 0.7)
        if abs(reference_moment(case1, wide, 0.7, n) - target) > 1e-6 * abs(target):
            moment_ok = False
    checks.append(("exact-moment-quadrature", moment_ok, "closed forms integrate to the published moments"))

    grid = build_grid(20.0, 1000)
    by_pair: dict[tuple[str, str], list[int]] = {}
    for case_id, method, m in oracle_table():
        by_pair.setdefault((case_id, method), []).append(m)
    errors = []
    for (case_id, method), orders in by_pair.items():
        case = registry_case(case_id)
        _, series = _run(case, grid, method, max(orders), case.reference_alpha, ())
        for m in orders:
            num = series.terms[m].eval(case.tend)
            ref = oracle_terms(case_id, method, m, grid, alpha=series.alpha).eval(case.tend)
            rel = l1_distance(num, ref) / max(l1_norm(ref), 1e-300)
            errors.append((rel, f"{case_id}/{method}/m={m}"))
    worst, label = max(errors)
    checks.append(("oracle-equivalence", worst <= 1e-3, f"worst {label} rel L1 {worst:.2e}"))

    degree_ok = all(
        term.degree <= m
        for m, term in enumerate(ham_terms(case1, build_grid(10.0, 64), 4, -0.8).terms)
    )
    checks.append(("control-series-degree", degree_ok, "term m has polynomial degree m"))

    try:
        ham_terms(case1, build_grid(10.0, 16), 1, 0.5)
        alpha_ok = False
    except DomainError:
        alpha_ok = True
    checks.append(("alpha-domain", alpha_ok, "control parameter restricted to [-1, 0)"))

    # the time derivative the finite volumes step by, on every birth map they run
    small = build_grid(5.0, 16)
    f = rng.uniform(0.0, 1.0, small.cells)
    gaps = []
    for case in map(registry_case, case_ids()):
        operator = CollisionOperator(precompute_weights(small, case.breakage), case.kernel)
        fast = operator.taylor_rows(f, 1)[1]
        gaps.append(np.max(np.abs(fast - brute_force_rhs(small, case.breakage, case.kernel, f))))
    checks.append(
        (
            "rhs-brute-force",
            bool(max(gaps) <= 1e-12),
            "vectorised collision terms match the triple loop",
        )
    )
    return checks


def cmd_validate(outdir: str | None) -> int:
    checks = _validation_checks()
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if outdir is not None:
        payload = {
            "version": __version__,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in checks
            ],
            "passed": not failed,
        }
        _write_run_json(Path(outdir) / "validate.json", payload)
    if failed:
        print(f"validation failed: {failed[0]}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for key, setting in _SETTINGS.items():
        meta = setting.metadata
        parser.add_argument(
            _flag(key), dest=key, type=meta["parse"], choices=meta["choices"], help=meta["help"]
        )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    return build_config(file_values, {key: getattr(args, key) for key in _SETTINGS})


def _add_eoc_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument(
        "--cell-list",
        type=_parse_cells,
        default=list(_TABLE1_CELLS),
        help="comma-separated doubling cell counts",
    )


def _add_reproduce_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("target", help=f"all or one of {', '.join(_FIGURES)}")
    parser.add_argument("--out", dest="outdir", default="reproduction")
    parser.add_argument("--cells", type=int, default=RunConfig.cells)


def _add_validate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", dest="outdir", default=None)


# command: (help, the function that adds its arguments)
_COMMANDS = {
    "solve": ("run one case/method and emit tables", _add_config_flags),
    "eoc": ("doubling-grid convergence table", _add_eoc_flags),
    "reproduce": ("emit benchmark figure/table data", _add_reproduce_flags),
    "optimize-alpha": ("minimise the averaged residual", _add_config_flags),
    "validate": ("run oracle and invariant checks", _add_validate_flags),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given one of ``_COMMANDS``, only that subparser is built (every
    subparser costs argparse's set-up), and the usage still lists all five."""
    parser = argparse.ArgumentParser(
        prog="cbelab",
        description="Finite-volume and homotopy-series solvers for collision-induced breakage",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    only = command in _COMMANDS
    # with one subparser the default metavar would list only its name
    metavar = "{" + ",".join(_COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if not only or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "reproduce":
        return cmd_reproduce(args.target, args.outdir, args.cells)
    if args.command == "validate":
        return cmd_validate(args.outdir)
    config = _config_from_args(args)
    _reject_unread(args.command, config)
    if args.command == "solve":
        return cmd_solve(config)
    if args.command == "eoc":
        return cmd_eoc(config, args.cell_list)
    if config.method == "fvm":
        config = replace(config, method="ham")
    return cmd_optimize_alpha(config)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # overflow is caught as a non-finite value before any output
        with np.errstate(over="ignore", invalid="ignore"):
            return _dispatch(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CbelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
