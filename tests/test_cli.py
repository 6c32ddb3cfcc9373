import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cbelab
from cbelab import DivergenceError, NumericalError, StiffnessError
from cbelab.cli import (
    _FIGURES as FIGURES,
    _build_parser,
    _config_from_args,
    _flag,
    _write_csv,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    build_config,
    load_config_file,
    main,
)


def read_body(path: Path) -> str:
    """CSV content without the config-hash comment line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    return "\n".join(lines[1:])


class TestConfig:
    def test_file_then_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case=ex1\nmethod=fvm\ncells=64\n# comment\n")
        config = build_config(load_config_file(str(cfg)), {"cells": 32})
        assert config.case == "ex1"
        assert config.cells == 32

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case=ex1\nwidgets=9\n")
        with pytest.raises(UsageError):
            build_config(load_config_file(str(cfg)), {})

    def test_missing_case_rejected(self):
        with pytest.raises(UsageError, match="missing case id"):
            build_config({}, {"method": "fvm"})

    def test_alpha_range_enforced(self):
        with pytest.raises(UsageError):
            build_config({}, {"case": "ex1", "alpha": "0.5"}).validated()

    def test_bad_method_rejected(self):
        with pytest.raises(UsageError):
            build_config({}, {"case": "ex1", "method": "spectral"})

    def test_hash_is_stable(self):
        a = RunConfig(case="ex1", cells=100)
        b = RunConfig(case="ex1", cells=100)
        assert a.hash() == b.hash()
        assert a.hash() != RunConfig(case="ex1", cells=101).hash()


class TestSolveCommand:
    def test_fvm_solve_writes_tables(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "solve", "--case", "ex1", "--method", "fvm",
                "--cells", "80", "--times", "0,0.5,1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        moments = (out / "moments.csv").read_text().splitlines()
        assert moments[1] == "case,method,time,m0,m1,m2"
        final = moments[-1].split(",")
        assert final[0] == "ex1" and float(final[2]) == 1.0
        assert abs(float(final[4]) - 1.0) < 1e-2  # mass stays near one
        run_info = json.loads((out / "run.json").read_text())
        assert run_info["config"]["cells"] == 80
        assert run_info["fvm_steps"] > 0
        # Dormand–Prince 5(4) evaluates the right-hand side several times per accepted step
        assert run_info["rhs_evaluations"] > run_info["fvm_steps"]

    def test_series_solve_records_alpha(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "solve", "--case", "ex1", "--method", "ham", "--order", "3",
                "--cells", "80", "--alpha", "-0.8", "--times", "0,1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        body = (out / "concentration.csv").read_text().splitlines()
        assert body[2].split(",")[3] == "-0.8"

    def test_auto_alpha_logged(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "solve", "--case", "ex1", "--method", "ham", "--order", "2",
                "--cells", "60", "--alpha", "auto", "--times", "0,1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        run_info = json.loads((out / "run.json").read_text())
        assert -1.0 <= run_info["alpha_star"] < 0.0
        assert run_info["averaged_residual"] >= 0.0

    def test_deterministic_csv_bodies(self, tmp_path):
        args = [
            "solve", "--case", "ex3", "--method", "ahpm", "--order", "3",
            "--cells", "70", "--times", "0,0.25,0.5",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        for name in ("concentration.csv", "moments.csv"):
            assert read_body(out1 / name) == read_body(out2 / name)

    def test_unknown_case_is_usage_error(self, tmp_path):
        code = main(["solve", "--case", "ex9", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("method", ["fvm", "ham", "ahpm"])
    @pytest.mark.parametrize("times", ["0,0.5,5", "0.5,0.2", "-0.1,0.5"])
    def test_bad_times_are_usage_errors(self, tmp_path, capsys, method, times):
        # past the horizon, descending or negative: no method extrapolates
        code = main(
            [
                "solve", "--case", "ex1", "--method", method, "--alpha", "-0.8",
                "--order", "3", "--cells", "40", f"--times={times}",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_USAGE
        assert "times" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_times_checked_against_overridden_horizon(self):
        assert build_config({}, {"case": "ex1", "tend": 2.0, "times": (0.0, 1.5)})
        with pytest.raises(UsageError, match="horizon"):
            build_config({}, {"case": "ex1", "tend": 0.5, "times": (0.0, 0.75)})

    def test_rerun_differs_only_in_wall_time(self, tmp_path):
        args = [
            "solve", "--case", "ex1", "--method", "fvm", "--cells", "40",
            "--times", "0,0.5,1", "--out", str(tmp_path / "run"),
        ]
        outputs = []
        for _ in range(2):
            assert main(args) == EXIT_OK
            run_info = json.loads((tmp_path / "run" / "run.json").read_text())
            assert run_info.pop("wall_time_s") >= 0.0
            files = {
                name: (tmp_path / "run" / name).read_bytes()
                for name in ("concentration.csv", "moments.csv")
            }
            outputs.append((run_info, files))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("error", [DivergenceError, StiffnessError, NumericalError])
    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch, error):
        import cbelab.cli as cli_module

        def explode(*args, **kwargs):
            raise error("synthetic blow-up")

        monkeypatch.setattr(cli_module, "integrate", explode)
        code = main(
            ["solve", "--case", "ex1", "--cells", "40", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_NUMERICAL

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            # AHPM term degrees double with the order and overflow on a wide domain
            pytest.param(
                ["solve", "--case", "ex1", "--method", "ahpm", "--order", "9",
                 "--cells", "20", "--rmax", "200"],
                id="order9-rmax200",
            ),
            # finite terms whose sum overflows only when evaluated at a far horizon
            pytest.param(
                ["solve", "--case", "ex1", "--method", "ahpm", "--order", "7",
                 "--cells", "40", "--tend", "1e40"],
                id="solve-tend1e40",
            ),
            pytest.param(
                ["eoc", "--case", "ex1", "--method", "ahpm", "--order", "5",
                 "--cell-list", "30,60", "--tend", "1e50"],
                id="eoc-tend1e50",
            ),
        ],
    )
    def test_non_finite_series_maps_to_exit_3(self, tmp_path, argv):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == EXIT_NUMERICAL
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "method, extra", [("fvm", []), ("ham", ["--alpha", "-0.8"]), ("ahpm", [])]
    )
    def test_moment_csv_matches_moment_table(self, tmp_path, method, extra):
        out = tmp_path / method
        argv = ["solve", "--case", "ex1", "--method", method, "--cells", "60", "--out", str(out)]
        assert main(argv + extra) == EXIT_OK
        case = cbelab.registry_case("ex1")
        grid = cbelab.build_grid(case.rmax, 60)
        times = tuple(np.linspace(0.0, case.tend, 11))
        if method == "fvm":
            profiles = cbelab.integrate(case, grid, times).snapshots
        else:
            if method == "ham":
                series = cbelab.ham_terms(case, grid, 5, -0.8)
            else:
                series = cbelab.ahpm_terms(case, grid, 5)
            profiles = [cbelab.truncated_sum(series, 5, t) for t in times]
        table = cbelab.moments_over_time(times, profiles)
        expected = [
            ",".join(["ex1", method] + [f"{v:.12g}" for v in (t, *row)])
            for t, row in zip(table.times, table.moments)
        ]
        assert (out / "moments.csv").read_text().splitlines()[2:] == expected


class TestEocCommand:
    def test_rejects_non_doubling_cells(self, tmp_path):
        code = main(
            [
                "eoc", "--case", "ex1", "--method", "fvm",
                "--cell-list", "30,90", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_USAGE

    def test_malformed_cell_list_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "eoc", "--case", "ex1", "--method", "fvm",
                    "--cell-list", "30,abc", "--out", str(tmp_path / "x"),
                ]
            )
        assert exc.value.code == EXIT_USAGE
        assert "--cell-list" in capsys.readouterr().err

    def test_requires_exact_concentration(self, tmp_path):
        code = main(
            [
                "eoc", "--case", "ex2", "--method", "fvm",
                "--cell-list", "30,60", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_USAGE

    def test_fvm_errors_decay(self, tmp_path):
        out = tmp_path / "eoc"
        code = main(
            [
                "eoc", "--case", "ex1", "--method", "fvm",
                "--cell-list", "30,60", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = (out / "eoc.csv").read_text().splitlines()[2:]
        first, second = (row.split(",") for row in rows)
        assert first[4] == ""  # no order on the first grid
        assert float(first[3]) > float(second[3])
        assert float(second[4]) > 0.0


# (command, method, key, value): ``value`` for ``key`` changes the config hash
# but not the result; method None runs the command's default method
_UNREAD_INPUTS = [
    ("eoc", None, "grid_scheme", "geometric"),
    ("eoc", None, "eps_min", "0.01"),
    ("eoc", None, "times", "0,0.5"),
    ("eoc", "ham", "cells", "20"),
    ("eoc", "fvm", "order", "3"),
    ("eoc", "fvm", "alpha", "-0.5"),
    ("eoc", "ahpm", "alpha", "-0.5"),
    ("solve", "fvm", "order", "3"),
    ("solve", "fvm", "alpha", "-0.5"),
    ("solve", "ahpm", "alpha", "-0.5"),
    ("solve", "fvm", "eps_min", "0.01"),
    ("optimize-alpha", None, "alpha", "-0.5"),
    ("optimize-alpha", None, "times", "0,0.5"),
    ("optimize-alpha", None, "method", "ahpm"),
    ("optimize-alpha", None, "eps_min", "0.5"),
]


class TestUnusedSettings:
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command,method,key,value",
        _UNREAD_INPUTS,
        ids=["-".join(filter(None, entry)) for entry in _UNREAD_INPUTS],
    )
    def test_unused_settings_are_usage_errors(
        self, tmp_path, capsys, command, method, key, value, source
    ):
        out = tmp_path / "x"
        args = [command, "--case", "ex1", "--out", str(out)]
        if command == "eoc":
            args += ["--method", method or "fvm", "--cell-list", "20,40"]
        else:
            args += ["--cells", "20"] + (["--method", method] if method else [])
        flag = "--" + key.replace("_", "-")
        if source == "flag":
            args += [flag, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
        assert main(args) == EXIT_USAGE
        assert f"does not use {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_values_are_accepted(self, tmp_path):
        eoc_args = ["eoc", "--case", "ex1", "--method", "fvm", "--cell-list", "20,40"]
        eoc_args += ["--grid-scheme", "uniform", "--cells", "300"]
        assert main(eoc_args + ["--out", str(tmp_path / "e")]) == EXIT_OK
        alpha_args = ["optimize-alpha", "--case", "ex1", "--order", "2", "--cells", "20"]
        assert main(alpha_args + ["--alpha", "auto", "--out", str(tmp_path / "a")]) == EXIT_OK
        solve_args = ["solve", "--case", "ex1", "--method", "fvm", "--cells", "20", "--times", "0,1"]
        solve_args += ["--order", "5", "--alpha", "auto"]
        assert main(solve_args + ["--out", str(tmp_path / "s")]) == EXIT_OK


# one text per setting, each differing from the default
_SETTING_TEXTS = {
    "case": "ex3",
    "method": "ham",
    "order": "3",
    "cells": "64",
    "grid_scheme": "geometric",
    "eps_min": "0.01",
    "alpha": "-0.7",
    "rmax": "12.5",
    "tend": "0.8",
    "times": "0,0.25,0.5",
    "outdir": "elsewhere",
}


@pytest.mark.parametrize("key", [setting.name for setting in fields(RunConfig)])
def test_flag_and_config_file_parse_alike(tmp_path, key):
    texts = {"case": "ex1", key: _SETTING_TEXTS[key]}
    if key == "eps_min":
        texts["grid_scheme"] = "geometric"  # uniform grids do not read it
    flags = [f"{_flag(k)}={text}" for k, text in texts.items()]
    from_flags = _config_from_args(_build_parser().parse_args(["solve", *flags]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={text}\n" for k, text in texts.items()))
    from_file = _config_from_args(_build_parser().parse_args(["solve", "--config", str(cfg)]))
    assert from_flags == from_file
    assert from_flags != RunConfig(case="ex1")


class TestReproduceCommand:
    def test_unknown_figure(self, tmp_path):
        assert main(["reproduce", "fig99", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_term_norm_figure(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["reproduce", "fig3b", "--out", str(out), "--cells", "100"])
        assert code == EXIT_OK
        rows = (out / "fig3b" / "term_norms.csv").read_text().splitlines()
        assert rows[1] == "case,method,m,l1_norm"
        assert len(rows) == 2 + 2 * 5  # both series methods, orders 1..5

    def test_moment_figure_includes_exact_curve(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["reproduce", "fig6", "--out", str(out), "--cells", "80"])
        assert code == EXIT_OK
        rows = (out / "fig6" / "moments.csv").read_text().splitlines()[2:]
        methods = {row.split(",")[1] for row in rows}
        assert methods == {"fvm", "ham", "ahpm", "exact"}


@pytest.fixture(scope="module")
def reproduce_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduce") / "all"
    assert main(["reproduce", "all", "--out", str(out), "--cells", "40"]) == EXIT_OK
    return out


class TestReproduceSharesRuns:
    def test_each_run_computed_once(self, tmp_path, monkeypatch):
        import cbelab.cli as cli_module

        calls = {"integrate": 0, "ham_terms": 0, "ahpm_terms": 0}

        def counted(name):
            solver = getattr(cli_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return solver(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli_module, name, counted(name))
        assert main(["reproduce", "all", "--out", str(tmp_path), "--cells", "40"]) == EXIT_OK
        # table1: four grids per method; ex1, ex2 and ex3 one run per method each
        assert calls == {"integrate": 7, "ham_terms": 7, "ahpm_terms": 7}

    @pytest.mark.parametrize("figure", list(FIGURES))
    def test_single_figure_matches_all(self, tmp_path, reproduce_all, figure):
        assert main(["reproduce", figure, "--out", str(tmp_path), "--cells", "40"]) == EXIT_OK
        (alone,) = (tmp_path / figure).iterdir()
        assert [p.name for p in (reproduce_all / figure).iterdir()] == [alone.name]
        assert read_body(alone) == read_body(reproduce_all / figure / alone.name)


class TestValidateCommand:
    def test_validate_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "v"
        assert main(["validate", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "validate.json").read_text())
        assert report["passed"] is True
        names = {check["name"] for check in report["checks"]}
        assert "oracle-equivalence" in names

    def test_validate_catches_perturbed_oracle(self, monkeypatch, capsys):
        import cbelab.cli as cli_module
        from cbelab import TimePoly, oracle_terms

        def skewed(case_id, method, m, grid, alpha=None):
            term = oracle_terms(case_id, method, m, grid, alpha=alpha)
            return TimePoly(grid, 1.01 * term.coeffs)

        monkeypatch.setattr(cli_module, "oracle_terms", skewed)
        assert main(["validate"]) == 1
        out = capsys.readouterr()
        assert "[FAIL] oracle-equivalence" in out.out
        assert "validation failed: oracle-equivalence" in out.err


class TestCsvEmission:
    @pytest.mark.parametrize(
        "block",
        [
            (("ex1", float("nan")), ([1.0], [2.0])),
            (("ex1", 0.5), ([1.0, float("nan")], [2.0, 3.0])),
            (("ex1", 0.5), ([1.0, 2.0], [3.0, float("inf")])),
            (("ex1", 0.5), (np.array([1.0, np.nan]), [2.0, 3.0])),
            (("ex1", 0.5), ([1.0, 2.0], np.array([3.0, np.inf]))),
            (("ex1", 0.5), (np.array([-np.inf, 1.0]), [2.0, 3.0])),
        ],
        ids=["nan-lead", "nan-column", "inf-column", "nan-array", "inf-array", "neginf-array"],
    )
    def test_non_finite_values_abort(self, tmp_path, block):
        path = tmp_path / "bad.csv"
        with pytest.raises(DivergenceError):
            _write_csv(path, "deadbeef", ["case", "time", "size", "value"], [block])
        assert not path.exists()

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    @example(values=[-0.0, 5e-324, 1.7e308, -1.7e308, 1e-5, 0.1 + 0.2, 123456789012345.0])
    def test_float64_array_matches_float_list(self, tmp_path_factory, values):
        # a list of Python floats goes through ``_text`` entry by entry
        out = tmp_path_factory.mktemp("csv")
        header = ["case", "time", "size", "value"]
        lead = ("ex1", values[0])
        _write_csv(out / "array.csv", "deadbeef", header, [(lead, (np.array(values), np.array(values[::-1])))])
        _write_csv(out / "list.csv", "deadbeef", header, [(lead, ([*values], [*values[::-1]]))])
        assert (out / "array.csv").read_bytes() == (out / "list.csv").read_bytes()

    def test_float32_array_keeps_str_spelling(self, tmp_path):
        path = tmp_path / "f32.csv"
        column = np.array([0.1, 1e-5], dtype=np.float32)
        _write_csv(path, "deadbeef", ["case", "size", "value"], [(("ex1",), (column, [1, 2]))])
        assert path.read_text().splitlines()[2:] == ["ex1,0.1,1", "ex1,1e-05,2"]

    def test_percent_signs_written_verbatim(self, tmp_path):
        path = tmp_path / "pct.csv"
        block = (("a%b",), (np.array([1.0, 2.0]), ["100%", "%s"]))
        _write_csv(path, "deadbeef", ["lead", "size", "label"], [block])
        assert path.read_text().splitlines()[2:] == ["a%b,1,100%", "a%b,2,%s"]

    def test_fine_solve_formats_per_block(self, tmp_path, monkeypatch):
        import cbelab.cli as cli_module

        calls = 0
        text = cli_module._text

        def counted(value):
            nonlocal calls
            calls += 1
            return text(value)

        monkeypatch.setattr(cli_module, "_text", counted)
        argv = ["solve", "--case", "ex1", "--method", "fvm", "--cells", "4000", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        # float64 columns skip ``_text``; leads and the short moment columns use it
        assert calls < 1000

    def test_text_format(self, tmp_path):
        path = tmp_path / "t.csv"
        blocks = [
            (("ex1", "ham", 5, -0.8, 1 / 3), (np.array([1e-5, 2.0]), [0.25, None])),
            (("ex1", "fvm", None, None, 1.0), ([123456789012345.0], [7])),
        ]
        _write_csv(path, "deadbeef", ["case", "method", "order", "alpha", "time", "size", "value"], blocks)
        assert path.read_text().splitlines() == [
            "# config deadbeef",
            "case,method,order,alpha,time,size,value",
            "ex1,ham,5,-0.8,0.333333333333,1e-05,0.25",
            "ex1,ham,5,-0.8,0.333333333333,2,",
            "ex1,fvm,,,1,1.23456789012e+14,7",
        ]

    def test_geometric_grid_solve(self, tmp_path):
        out = tmp_path / "geo"
        code = main(
            [
                "solve", "--case", "ex1", "--method", "fvm", "--cells", "60",
                "--grid-scheme", "geometric", "--eps-min", "0.01",
                "--times", "0,1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = (out / "moments.csv").read_text().splitlines()
        assert abs(float(rows[-1].split(",")[4]) - 1.0) < 2e-2


class TestOptimizeAlphaCommand:
    def test_writes_alpha_json(self, tmp_path):
        out = tmp_path / "alpha"
        code = main(
            [
                "optimize-alpha", "--case", "ex1", "--order", "2",
                "--cells", "60", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "alpha.json").read_text())
        assert -1.0 <= payload["alpha_star"] < 0.0
        assert payload["averaged_residual"] >= 0.0


def test_import_pulls_in_no_scipy():
    # every command pays the import time of whatever the package imports
    code = "import sys, cbelab, cbelab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(Path(cbelab.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"
