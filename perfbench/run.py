"""cbelab benchmark: CLI workloads end to end, checked outputs, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one ``cbelab`` CLI invocation
at a time, each in a fresh child process (``perfbench/probe.py``), because a
user pays the imports and the solver caches on every call.  The child gets
only the generated CLI arguments and runs the sources under ``src/``.  Every
invocation's files are checked (``perfbench/checks.py``); an invocation
fails on a nonzero exit, a missing or short file, a non-finite value, an
accuracy figure outside its acceptance tolerance, or CSV bodies that differ
between identical invocations.

The seed sets the cell count of each invocation.  The default seed runs the
nominal size throughout.  Any other seed draws the start of a low-discrepancy
sequence over nominal +-10 %, taken in antithetic pairs (u, 1 - u) around the
nominal size.  A metric is the median over pairs of the pair's mean, which
cancels the first-order dependence on the cell count and leaves the time
noise of the shared machine.  A run ends with the pair that brings its
length nearest to ``--seconds``.

``--trace 0`` measures the end-to-end metrics: ``run_s`` (wall time of
``cbelab.cli.main`` in the child), ``setup_s`` (the child's
``import cbelab.cli``), ``peak_rss_mb`` (the child's ``ru_maxrss``) and
``err_l1`` (the largest relative L1 distance from the closed form among the
ex1 profiles at t = 1 the invocation writes).  The failure ratio and the
accuracy figures behind ``err_l1`` are printed above the result line.

``--trace 1`` alternates traced and untraced invocations of the same size,
derives the per-layer metrics from the spans, checks that the trace covers
the expected calls, and ends with a scaling sweep.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  Per-invocation records, output digests,
run metadata and spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 60
MIN_PAIRS = 2  # per run, so that every median has at least two samples
SWEEP_MEMORY_CAP = 512 << 20  # bytes of dense tables the scaling sweep may allocate
_GOLDEN = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class Workload:
    nominal: int  # cell count at the default seed
    args: Callable[[int], list[str]]  # CLI arguments for a cell count, without --out
    check: Callable[[Path, int], tuple[dict, dict]]  # (figures, digests) of one output
    spans: tuple[str, ...]  # spans every traced invocation must contain


WORKLOADS = {
    # The paper's deliverable: all three cases (ex3's discrete fragments too)
    # and all three methods; the same ex1 artefacts are recomputed for
    # fig1, fig2 and fig7, and AHPM terms reach degree 31.
    "reproduce": Workload(
        300,
        lambda n: ["reproduce", "all", "--cells", str(n)],
        checks.check_reproduce,
        ("fvm.integrate", "series.ham_terms", "series.ahpm_terms", "series.truncated_sum"),
    ),
    # Control-parameter search: the series layer on a small grid with
    # thousands of collision-operator applications; never calls fvm.
    "alpha_auto": Workload(
        300,
        lambda n: ["solve", "--case", "ex1", "--method", "ham", "--order", "5",
                   "--alpha", "auto", "--cells", str(n)],
        partial(checks.check_solve, method="ham"),
        ("series.optimize_alpha", "series.averaged_residual", "series.residual", "series.ham_terms"),
    ),
    # Finite volumes on a large grid with few operator applications: dense
    # N x N tables set time and memory; never calls series.
    "fvm_fine": Workload(
        4000,
        lambda n: ["solve", "--case", "ex1", "--method", "fvm", "--cells", str(n)],
        partial(checks.check_solve, method="fvm"),
        ("fvm.integrate", "fvm.precompute_weights", "cases.kernel_matrix"),
    ),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class CoverageError(Exception):
    """The trace misses an expected span or its counts disagree."""


def cells_for(nominal: int, seed: int, k: int) -> int:
    """Cell count of invocation ``k``; invocations 2j and 2j + 1 form pair j."""
    if seed == DEFAULT_SEED:
        return nominal
    u = (random.Random(seed).random() + (k // 2) * _GOLDEN) % 1.0
    if k % 2:
        u = 1.0 - u
    return round(nominal * (0.9 + 0.2 * u))


# --------------------------------------------------------------------------
# one invocation
# --------------------------------------------------------------------------

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def invoke(workload: Workload, cells: int, mode: str, meta: bool = False) -> dict:
    """Run one CLI invocation in a fresh child and check its outputs."""
    workdir = WORK / "invocation"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir = workdir / "out"
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(result_path), mode]
    cmd += ["--meta"] if meta else []
    cmd += ["--", *workload.args(cells), "--out", str(outdir)]
    record = {"cells": cells, "mode": mode, "ok": False}
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return record
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        record["error"] = f"child exit {proc.returncode}: {tail[0]}"
        return record
    record.update(json.loads(result_path.read_text()))
    if record["exit"] != 0:
        record["error"] = f"cbelab exit {record['exit']}: {proc.stderr.strip()[-200:]}"
        return record
    try:
        record["figures"], record["digests"] = workload.check(outdir, cells)
    except checks.OutputError as exc:
        record["error"] = str(exc)
        return record
    record["out_bytes"] = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
    record["ok"] = True
    return record


def check_determinism(records: list[dict]) -> None:
    """Identical invocations must write byte-identical CSV bodies."""
    first: dict[int, dict] = {}
    for record in records:
        if not record["ok"]:
            continue
        seen = first.setdefault(record["cells"], record["digests"])
        if record["digests"] != seen:
            record["ok"] = False
            record["error"] = f"CSV bodies differ between identical runs at {record['cells']} cells"


# --------------------------------------------------------------------------
# trace analysis
# --------------------------------------------------------------------------

def layer_metrics(spans: list[list], out_bytes: int) -> dict:
    """Per-layer figures of one traced invocation.

    A span's self time is its duration minus its direct children's; a name's
    inclusive time counts only spans with no ancestor of the same name.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    self_time = list(duration)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    attrs: dict[str, int] = {"steps": 0, "rhs_evals": 0, "max_degree": 0}
    for i, (name, _, _, parent, extra) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[i]
        calls[name] = calls.get(name, 0) + 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration[i]
        for key, value in (extra or {}).items():
            attrs[key] = max(attrs[key], value) if key == "max_degree" else attrs[key] + value
    for i, (name, *_rest) in enumerate(spans):
        own[name] = own.get(name, 0.0) + self_time[i]

    def module_self(prefix: str) -> float:
        return sum((v for k, v in own.items() if k.startswith(prefix)), 0.0)

    integrate_self = own.get("fvm.integrate", 0.0)
    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.out_bytes": out_bytes,
        "fvm.integrate_s": inclusive.get("fvm.integrate", 0.0),
        "fvm.integrate_calls": calls.get("fvm.integrate", 0),
        "fvm.integrate_self_s": integrate_self,
        "fvm.precompute_weights_s": inclusive.get("fvm.precompute_weights", 0.0),
        "fvm.steps": attrs["steps"],
        "fvm.rhs_evals": attrs["rhs_evals"],
        "fvm.self_s_per_rhs": integrate_self / attrs["rhs_evals"] if attrs["rhs_evals"] else 0.0,
        "cases.kernel_matrix_s": inclusive.get("cases.kernel_matrix", 0.0),
        "cases.kernel_matrix_calls": calls.get("cases.kernel_matrix", 0),
        "series.optimize_alpha_s": inclusive.get("series.optimize_alpha", 0.0),
        "series.averaged_residual_calls": calls.get("series.averaged_residual", 0),
        "series.residual_calls": calls.get("series.residual", 0),
        "series.residual_s": inclusive.get("series.residual", 0.0),
        "series.ham_terms_calls": calls.get("series.ham_terms", 0),
        "series.ham_terms_s": inclusive.get("series.ham_terms", 0.0),
        "grid.project_initial_calls": calls.get("grid.project_initial", 0),
        "series.ahpm_terms_calls": calls.get("series.ahpm_terms", 0),
        "series.ahpm_terms_s": inclusive.get("series.ahpm_terms", 0.0),
        "series.truncated_sum_s": inclusive.get("series.truncated_sum", 0.0),
        "series.max_degree": attrs["max_degree"],
        "metrics.self_s": module_self("metrics."),
        "grid.self_s": module_self("grid."),
    }


def check_coverage(workload: Workload, record: dict) -> None:
    """Fail when a traced invocation misses a span or its counts disagree."""
    spans = record["spans"]
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != "cli.main":
        raise CoverageError(f"expected one cli.main root span, got {[s[0] for s in roots]}")
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start or parent >= i:
            raise CoverageError(f"malformed span {i} {name}")
        if parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            raise CoverageError(f"span {i} {name} escapes its parent")
    names = {s[0] for s in spans}
    missing = [name for name in workload.spans if name not in names]
    if missing:
        raise CoverageError(f"missing spans: {missing}")
    figures = record["figures"]
    layers = record["layers"]
    if "series.optimize_alpha" in names:
        builds, evaluations = layers["series.ham_terms_calls"], layers["series.averaged_residual_calls"]
        if builds != evaluations + 1:
            raise CoverageError(f"{builds} HAM builds for {evaluations} objective evaluations")
    if "fvm_steps" in figures and figures["fvm_steps"] != layers["fvm.steps"]:
        raise CoverageError(f"run.json reports {figures['fvm_steps']} steps, trace {layers['fvm.steps']}")


def sweep(memory_cap: int = SWEEP_MEMORY_CAP) -> dict:
    result_path = WORK / "sweep.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(result_path), "sweep", str(memory_cap)]
    subprocess.run(cmd, cwd=WORK, env=_child_env(), check=True, capture_output=True, timeout=120)
    return json.loads(result_path.read_text())


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------

def pair_median(records: list[dict], value: Callable[[dict], float]) -> float:
    """Median over antithetic pairs of the mean of each pair's values."""
    pairs: dict[int, list[float]] = {}
    for record in records:
        pairs.setdefault(record["k"] // 2, []).append(value(record))
    return statistics.median(statistics.fmean(v) for v in pairs.values())


def _err_l1(record: dict) -> float:
    return max(v for k, v in record["figures"].items() if k.startswith("err_l1."))


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list[dict]]:
    """Run the closed loop for ``seconds``; returns (result line, report, invocation records)."""
    workload = WORKLOADS[name]
    records: list[dict] = []
    start = time.perf_counter()
    pair = 0
    pair_s = 0.0
    while pair < MIN_PAIRS or time.perf_counter() - start + pair_s / 2 <= seconds:
        pair_start = time.perf_counter()
        for k in (2 * pair, 2 * pair + 1):
            cells = cells_for(workload.nominal, seed, k)
            records.append(dict(invoke(workload, cells, "run", meta=k == 0), k=k))
            if trace:
                traced = dict(invoke(workload, cells, "trace"), k=k)
                if traced["ok"]:
                    traced["layers"] = layer_metrics(traced["spans"], traced["out_bytes"])
                records.append(traced)
        pair += 1
        pair_s = time.perf_counter() - pair_start
    check_determinism(records)
    for record in records:
        if record["ok"] and record["mode"] == "trace":
            check_coverage(workload, record)

    timed = [r for r in records if "run_s" in r and r["mode"] == "run"]
    good = [r for r in records if r["ok"]]
    if not timed or not good:
        raise RuntimeError(f"no invocation completed: {records[0].get('error')}")
    failed = len(records) - len(good)
    if trace:
        traced = [r for r in good if r["mode"] == "trace"]
        if not traced:
            raise RuntimeError("no traced invocation completed")
        metrics = {key: pair_median(traced, lambda r: r["layers"][key]) for key in traced[0]["layers"]}
        run_s = pair_median(timed, lambda r: r["run_s"])
        metrics["trace_overhead"] = pair_median(traced, lambda r: r["run_s"]) / run_s - 1.0
        swept = sweep()
        metrics["fvm.integrate_exp"] = swept["fvm.integrate_exp"]
        metrics["series.ahpm_order_growth"] = swept["series.ahpm_order_growth"]
        units = LAYER_UNITS
    else:
        swept = None
        metrics = {
            "run_s": pair_median(timed, lambda r: r["run_s"]),
            "setup_s": pair_median(timed, lambda r: r["setup_s"]),
            "peak_rss_mb": pair_median(timed, lambda r: r["peak_rss_mb"]),
            "err_l1": pair_median(good, _err_l1),
        }
        units = E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    figures = sorted({key for r in good for key in r["figures"]})
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": workload.args(cells_for(workload.nominal, seed, 0)),
        "samples": len(timed),
        "pairs": len({r["k"] // 2 for r in timed}),
        "fail_ratio": failed / len(records),
        "errors": sorted({r["error"] for r in records if not r["ok"]}),
        "figures": {key: pair_median(good, lambda r: r["figures"][key]) for key in figures},
        "digests": good[0]["digests"] if seed == DEFAULT_SEED else None,
        "meta": dict(records[0].get("meta") or {}, **_source_meta()),
        "sweep": swept,
        "result": result,
        "invocations": [{k: v for k, v in r.items() if k not in ("spans", "meta")} for r in records],
    }
    return result, report, records


def _source_meta() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"git_sha": sha, "src_lines": lines}


def write_spans(path: Path, records: list[dict]) -> None:
    spans = [
        {"invocation": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "attrs": s[4]}
        for i, r in enumerate(records)
        for s in r.get("spans", ())
    ]
    path.write_text(json.dumps(spans))


def print_summary(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}  "
          f"argv {' '.join(report['argv'])}")
    print(f"invocations {result['attempted']}  failed {result['failed']}  "
          f"timed samples {report['samples']} in {report['pairs']} pairs")
    for key, entry in result["metrics"].items():
        print(f"  {key:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'fail_ratio':32s} {report['fail_ratio']:.6g} ratio")
    for key, value in report["figures"].items():
        print(f"  {key:32s} {value:.6g}  (pair median over passing invocations)")
    for error in report["errors"]:
        print(f"  error: {error}")
    for name, digest in (report["digests"] or {}).items():
        print(f"  sha256 {name:28s} {digest}")
    meta = report["meta"]
    print("  meta " + "  ".join(f"{k}={v}" for k, v in meta.items() if k != "isolation"))
    print(f"  note {meta.get('isolation')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cbelab" / "cli.py").is_file():
        print(f"error: no cbelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    warm = subprocess.run([sys.executable, "-c", "import cbelab.cli"], env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: cannot import cbelab: {warm.stderr.strip()[-300:]}", file=sys.stderr)
        return 2
    try:
        result, report, records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (CoverageError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        write_spans(WORK / f"spans-{stem}.json", records)
    print_summary(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
