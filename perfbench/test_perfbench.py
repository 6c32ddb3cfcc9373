"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke tests run every workload at a small size, with and without
tracing, and compare the metric names and units with ``BENCHMARK.json``.
"""

import dataclasses
import shutil

import pytest

import checks
import run

SMALL = {"reproduce": 300, "alpha_auto": 100, "fvm_fine": 400}
FVM_SMALL = dataclasses.replace(run.WORKLOADS["fvm_fine"], nominal=SMALL["fvm_fine"])


@pytest.fixture
def small_workloads(monkeypatch):
    for name, cells in SMALL.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(run.WORKLOADS[name], nominal=cells))
    # the sweep has its own test; its fixed sizes would dominate the smoke runs
    monkeypatch.setattr(run, "sweep", lambda: {"fvm.integrate_exp": 2.0, "series.ahpm_order_growth": 4.0})


def test_spec_names_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_reports_every_metric(small_workloads, name, trace):
    result, report, _ = run.measure(name, seed=run.DEFAULT_SEED, seconds=0, trace=trace)
    assert result["correct"], report["errors"]
    assert result["attempted"] == (2 if trace else 1) * 2 * run.MIN_PAIRS
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    assert report["digests"]


def test_seed_draws_antithetic_pairs_from_the_band():
    assert {run.cells_for(300, run.DEFAULT_SEED, k) for k in range(20)} == {300}
    cells = [run.cells_for(300, 7, k) for k in range(40)]
    assert cells == [run.cells_for(300, 7, k) for k in range(40)]
    assert min(cells) >= 270 and max(cells) <= 330 and len(set(cells)) > 20
    assert all(abs(a + b - 600) <= 1 for a, b in zip(cells[::2], cells[1::2]))
    assert cells != [run.cells_for(300, 8, k) for k in range(40)]


def test_pair_median_averages_within_pairs():
    records = [{"k": k, "v": v} for k, v in enumerate([1.0, 3.0, 10.0, 30.0, 5.0, 5.0])]
    assert run.pair_median(records, lambda r: r["v"]) == 5.0


def _corrupting(corrupt):
    def check(outdir, cells):
        corrupt(outdir / "concentration.csv")
        return FVM_SMALL.check(outdir, cells)

    return dataclasses.replace(FVM_SMALL, check=check)


def _inject_nan(path):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[7].split(",")
    cells[-1] = "nan\n"
    lines[7] = ",".join(cells)
    path.write_text("".join(lines))


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


@pytest.mark.parametrize("corrupt", [_inject_nan, _truncate])
def test_corrupt_output_counts_as_failed(monkeypatch, corrupt):
    calls = []

    def once(path):
        if not calls:
            corrupt(path)
        calls.append(path)

    monkeypatch.setitem(run.WORKLOADS, "fvm_fine", _corrupting(once))
    result, report, _ = run.measure("fvm_fine", seed=run.DEFAULT_SEED, seconds=0, trace=False)
    assert result["attempted"] == 2 * run.MIN_PAIRS
    assert result["failed"] == 1 and not result["correct"]
    assert report["fail_ratio"] == pytest.approx(1 / (2 * run.MIN_PAIRS))


@pytest.mark.parametrize("corrupt", [_inject_nan, _truncate])
def test_checks_reject_corrupt_copy(tmp_path, corrupt):
    record = run.invoke(FVM_SMALL, FVM_SMALL.nominal, "run")
    assert record["ok"], record.get("error")
    copy = tmp_path / "out"
    shutil.copytree(run.WORK / "invocation" / "out", copy)
    checks.check_solve(copy, FVM_SMALL.nominal, "fvm")
    corrupt(copy / "concentration.csv")
    with pytest.raises(checks.OutputError):
        checks.check_solve(copy, FVM_SMALL.nominal, "fvm")


def test_layer_metrics_take_self_time_from_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["fvm.integrate", 1.0, 7.0, 0, {"steps": 3, "rhs_evals": 20}],
        ["fvm.precompute_weights", 1.0, 2.0, 1, None],
        ["grid.project_initial", 2.0, 2.5, 1, None],
    ]
    layers = run.layer_metrics(spans, out_bytes=5)
    assert layers["cli.self_s"] == pytest.approx(4.0)
    assert layers["fvm.integrate_s"] == pytest.approx(6.0)
    assert layers["fvm.integrate_self_s"] == pytest.approx(4.5)
    assert layers["fvm.self_s_per_rhs"] == pytest.approx(4.5 / 20)
    assert layers["grid.self_s"] == pytest.approx(0.5)
    assert (layers["fvm.steps"], layers["fvm.rhs_evals"]) == (3, 20)


def test_coverage_rejects_a_missing_span():
    record = {
        "spans": [["cli.main", 0.0, 1.0, -1, None], ["fvm.integrate", 0.1, 0.9, 0, None]],
        "figures": {},
    }
    record["layers"] = run.layer_metrics(record["spans"], 0)
    with pytest.raises(run.CoverageError, match="missing spans"):
        run.check_coverage(run.WORKLOADS["fvm_fine"], record)


def test_sweep_reports_scaling():
    swept = run.sweep(memory_cap=3 * 8 * 1000 * 1000)
    assert swept["fvm.integrate_cells"] == [500, 1000]
    assert swept["fvm.integrate_exp"] > 0
    assert swept["series.ahpm_order_growth"] > 1
