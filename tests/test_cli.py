import hashlib
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
    _text,
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

    @pytest.mark.parametrize(
        "config, extra",
        [
            (RunConfig(case="ex1"), {}),
            (RunConfig(case="ex1", times=(0.0, 0.5, 1.0)), {}),
            (RunConfig(case="ex1"), {"cell_list": (30, 60, 120, 240)}),
        ],
        ids=["default", "times", "cell-list"],
    )
    def test_hash_is_sha256_of_sorted_settings(self, config, extra):
        # the `# config` digest: the first 12 hex digits of the SHA-256 of the
        # sorted key=value lines, without outdir
        values = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "outdir"}
        lines = sorted(f"{key}={value}" for key, value in (values | extra).items())
        expected = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]
        assert config.hash(**extra) == expected

    def test_hash_literal(self):
        assert RunConfig(case="ex1").hash() == "023afe7c0869"


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
        # each Taylor stage applies the operator once per row of the stage
        assert run_info["rhs_evaluations"] > run_info["fvm_steps"]

    def test_fvm_solve_on_a_short_horizon(self, tmp_path):
        # a horizon of 1e-13 is one stage of 1e-13, far above ten ulps of t
        out = tmp_path / "run"
        argv = ["solve", "--case", "ex1", "--method", "fvm", "--cells", "50", "--tend", "1e-13"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert (out / "moments.csv").is_file()

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

    def test_unknown_case_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--case", "ex9", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        # the plain message, without the quotes of KeyError's str()
        assert capsys.readouterr().err == (
            "error: unknown case 'ex9'; available: ['ex1', 'ex2', 'ex3']\n"
        )
        assert issubclass(UsageError, cbelab.CbelabError)

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["--case", "ex1", "--method", "ahpm", "--order", "-1"], None,
             "error: order must be non-negative"),
            (["--case", "ex1", "--method", "fvm", "--cells", "1"], None,
             "error: cells must be at least 2"),
            ([], "case=ex1\nmethod=ham\nalpha=abc\n", "error: cannot parse alpha='abc' as a number"),
            ([], "case=ex1\ncells\n", "run.cfg:2: expected key=value, got 'cells'"),
            ([], "case=ex1\ncells=abc\n", "error: bad value for config key 'cells': 'abc'"),
            ([], "case=ex1\ntimes=,\n", "error: bad value for config key 'times': ','"),
            (["--config", "missing.cfg"], None, "error: cannot read config file missing.cfg"),
        ],
        ids=["negative-order", "one-cell", "config-alpha", "config-no-equals", "config-cells",
             "config-empty-times", "config-missing"],
    )
    def test_bad_settings_are_usage_errors(self, tmp_path, capsys, monkeypatch, args, config,
                                           message):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            args = args + ["--config", "run.cfg"]
        assert main(["solve", *args, "--out", "x"]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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

    def test_empty_times_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--case", "ex1", "--method", "fvm", "--times", ",", "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_USAGE
        assert "argument --times" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "--case", "ex1", "--method", "fvm", "--cells", str(10**18)],
             "error: Unable to allocate"),
            (["solve", "--case", "ex1", "--method", "fvm", "--cells", str(10**19)],
             f"error: {10**19} cells exceed the largest array numpy can address"),
            (["eoc", "--case", "ex1", "--method", "fvm", "--cell-list", f"{5 * 10**17},{10**18}"],
             "error: Unable to allocate"),
            (["eoc", "--case", "ex1", "--method", "fvm", "--cell-list", f"{5 * 10**18},{10**19}"],
             f"error: {5 * 10**18} cells exceed the largest array numpy can address"),
        ],
        ids=["solve-1e18", "solve-1e19", "eoc-1e18", "eoc-1e19"],
    )
    def test_unallocatable_grid_is_usage_error(self, tmp_path, capsys, args, message):
        # counts whose arrays fail before any memory is taken
        assert main(args + ["--out", str(tmp_path / "x")]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not (tmp_path / "x").exists()

    def test_times_checked_against_overridden_horizon(self):
        assert build_config({}, {"case": "ex1", "tend": 2.0, "times": (0.0, 1.5)})
        with pytest.raises(UsageError, match="horizon"):
            build_config({}, {"case": "ex1", "tend": 0.5, "times": (0.0, 0.75)})

    @pytest.mark.parametrize("method", ["fvm", "ahpm"])
    def test_times_past_a_short_horizon_are_usage_errors(self, tmp_path, capsys, method):
        # ten times the horizon; an absolute slack of 1e-12 once let it through
        argv = [
            "solve", "--case", "ex1", "--method", method, "--cells", "50",
            "--tend", "1e-13", "--times", "0,1e-12", "--out", str(tmp_path / "x"),
        ]
        assert main(argv) == EXIT_USAGE
        assert "horizon" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("tend", ["1e-13", "0.3", "2.7"])
    @pytest.mark.parametrize("method", ["fvm", "ahpm"])
    def test_times_at_the_horizon_are_accepted(self, tmp_path, method, tend):
        # the last time parsed from the same text as the horizon, and the default times
        argv = ["solve", "--case", "ex1", "--method", method, "--cells", "20", "--tend", tend]
        assert main(argv + ["--times", f"0,{tend}", "--out", str(tmp_path / "given")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "default")]) == EXIT_OK
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"case=ex1\nmethod={method}\ncells=20\ntend={tend}\ntimes=0,{tend}\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "file")]) == EXIT_OK

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

    @pytest.mark.parametrize("method", ["fvm", "ahpm"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("setting", ["tend", "rmax"])
    def test_non_finite_horizon_or_radius_maps_to_exit_2(
        self, tmp_path, capsys, setting, value, method
    ):
        out = tmp_path / "x"
        argv = ["solve", "--case", "ex1", "--method", method, "--cells", "20", f"--{setting}", value]
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: {setting} must be finite and positive, got {value}"
        ]
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

    def test_single_cell_count_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "eoc", "--case", "ex1", "--method", "fvm",
                "--cell-list", "30", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_USAGE
        assert "error: need at least two cell counts" in capsys.readouterr().err

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

    def test_cell_list_enters_the_config_hash(self, tmp_path):
        def config_line(name, cell_list):
            args = ["eoc", "--case", "ex1", "--method", "fvm", "--cell-list", cell_list]
            assert main(args + ["--out", str(tmp_path / name)]) == EXIT_OK
            return (tmp_path / name / "eoc.csv").read_text().splitlines()[0]

        first = config_line("a", "30,60")
        assert config_line("b", "60,120") != first
        assert config_line("c", "30,60") == first

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

    @pytest.mark.parametrize("target", ["all", "table1"])
    def test_too_few_cells_writes_nothing(self, tmp_path, target, capsys):
        # table1 reads its own cell counts, yet one cell is still refused
        out = tmp_path / "rep"
        assert main(["reproduce", target, "--out", str(out), "--cells", "1"]) == EXIT_USAGE
        assert "cells must be at least 2" in capsys.readouterr().err
        assert not out.exists()

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


@pytest.fixture(scope="module")
def reproduce_all_60(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduce") / "all"
    assert main(["reproduce", "all", "--out", str(out), "--cells", "60"]) == EXIT_OK
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

    @pytest.mark.parametrize("figure", ["table1", "fig2", "fig7"])
    def test_figure_on_a_table1_grid_matches_all(self, tmp_path, reproduce_all_60, figure):
        # at 60 cells the ex1 figures run on table 1's second grid: table 1 reads the
        # horizon alone, fig2 all 11 times, and both share the grid and its setup
        assert main(["reproduce", figure, "--out", str(tmp_path), "--cells", "60"]) == EXIT_OK
        (alone,) = (tmp_path / figure).iterdir()
        assert (reproduce_all_60 / figure / alone.name).read_bytes() == alone.read_bytes()

    def test_each_grid_set_up_once(self, tmp_path, monkeypatch):
        import cbelab.cli as cli_module
        import cbelab.grid as grid_module
        import cbelab.metrics as metrics_module
        import cbelab.series as series_module

        made = {name: [] for name in ("grid", "projection", "operator", "reference")}
        sums, runs = [], []

        def recorded(module, name, record):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                record(args, kwargs, result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        recorded(cli_module, "build_grid", lambda a, k, grid: made["grid"].append((grid.rmax, grid.cells)))
        recorded(grid_module, "project_initial", lambda a, k, _: made["projection"].append(a))
        # the series' interpolated-rule operator takes its birth map from here
        recorded(series_module, "birth_map", lambda a, k, _: made["operator"].append((a[0], a[1], k)))
        recorded(metrics_module, "reference_moment", lambda a, k, _: made["reference"].append(a))
        recorded(cli_module, "truncated_sum", lambda a, k, _: sums.append((a[0].grid.cells, len(a[2]))))
        recorded(cli_module, "integrate", lambda a, k, _: runs.append((a[1].cells, len(a[2]))))
        assert main(["reproduce", "all", "--out", str(tmp_path), "--cells", "300"]) == EXIT_OK
        # R = 10 at table 1's four counts and at 300 cells; ex2 and ex3 share R = 20
        assert sorted(made["grid"]) == [(10.0, 30), (10.0, 60), (10.0, 120), (10.0, 240), (10.0, 300),
                                        (20.0, 300)]
        # one projection per grid and initial condition, and one series operator per
        # grid and breakage law, whichever methods read them
        assert len(made["projection"]) == 7 == len(set(made["projection"]))
        assert len(made["operator"]) == 7 == len(set((id(g), b) for g, b, _ in made["operator"]))
        assert all(k == {"interpolated": True} for *_, k in made["operator"])
        # table 1's number errors read one reference per grid, not one per method
        assert len(made["reference"]) == 4 == len(set(made["reference"]))
        # table 1 evaluates its runs at 0 and the horizon, the figures at 11 times
        table1 = [(cells, 2) for cells in (30, 60, 120, 240)]
        assert sorted(runs) == sorted(table1 + [(300, 11)] * 3)
        assert sorted(sums) == sorted(2 * table1 + [(300, 11)] * 6)

    def test_caches_stay_at_their_bound(self, tmp_path):
        from cbelab.grid import _projected
        from cbelab.metrics import _reference_number
        from cbelab.series import _collision_ops, _hpm_build

        for out in ("first", "second"):
            assert main(["reproduce", "all", "--out", str(tmp_path / out), "--cells", "40"]) == EXIT_OK
        for cache, bound in ((_projected, 4), (_collision_ops, 4), (_reference_number, 4), (_hpm_build, 1)):
            info = cache.cache_info()
            assert (info.maxsize, info.currsize) == (bound, bound)


class TestValidateCommand:
    def test_validate_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "v"
        assert main(["validate", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "validate.json").read_text())
        assert report["passed"] is True
        assert [check["name"] for check in report["checks"]] == [
            "kernel-symmetry",
            "exact-moment-quadrature",
            "oracle-equivalence",
            "control-series-degree",
            "alpha-domain",
            "rhs-brute-force",
        ]

    @staticmethod
    def assert_fails_only(name, capsys):
        assert main(["validate"]) == 1
        out = capsys.readouterr()
        failed = [line.split(":")[0] for line in out.out.splitlines() if line.startswith("[FAIL]")]
        assert failed == [f"[FAIL] {name}"]
        assert f"validation failed: {name}" in out.err

    def test_validate_catches_perturbed_oracle(self, monkeypatch, capsys):
        import cbelab.cli as cli_module
        from cbelab import TimePoly, oracle_terms

        def skewed(case_id, method, m, grid, alpha=None):
            term = oracle_terms(case_id, method, m, grid, alpha=alpha)
            return TimePoly(grid, 1.01 * term.coeffs)

        monkeypatch.setattr(cli_module, "oracle_terms", skewed)
        self.assert_fails_only("oracle-equivalence", capsys)

    def test_validate_catches_perturbed_cell_rule(self, monkeypatch, capsys):
        # the cell rule is the finite volumes' birth map for discrete fragments (ex3)
        from cbelab.collision import _CellWeights

        exact = _CellWeights.__call__
        monkeypatch.setattr(_CellWeights, "__call__", lambda self, c: 1.001 * exact(self, c))
        self.assert_fails_only("rhs-brute-force", capsys)

    def test_validate_catches_asymmetric_kernel(self, monkeypatch, capsys):
        import cbelab.cli as cli_module
        from cbelab import kernel_eval

        # a kernel evaluation that weights the partner size once more
        monkeypatch.setattr(cli_module, "kernel_eval", lambda k, x, y: kernel_eval(k, x, y) * y)
        self.assert_fails_only("kernel-symmetry", capsys)

    def test_validate_catches_perturbed_closed_form(self, monkeypatch, capsys):
        import cbelab.metrics as metrics_module
        from cbelab import exact_concentration

        monkeypatch.setattr(
            metrics_module,
            "exact_concentration",
            lambda case, t, x: 1.001 * exact_concentration(case, t, x),
        )
        self.assert_fails_only("exact-moment-quadrature", capsys)

    def test_validate_catches_a_term_above_its_degree(self, monkeypatch, capsys):
        import dataclasses

        import cbelab.cli as cli_module
        from cbelab import TimePoly, ham_terms

        # every term gains a t**(degree + 1) row too small to move any profile
        def raised(case, grid, order, alpha):
            series = ham_terms(case, grid, order, alpha)
            tail = np.full((1, grid.cells), 1e-300)
            terms = tuple(TimePoly(grid, np.vstack([t.coeffs, tail])) for t in series.terms)
            return dataclasses.replace(series, terms=terms)

        monkeypatch.setattr(cli_module, "ham_terms", raised)
        self.assert_fails_only("control-series-degree", capsys)

    def test_validate_catches_an_unchecked_control_parameter(self, monkeypatch, capsys):
        import cbelab.series as series_module

        monkeypatch.setattr(series_module, "_check_alpha", float)
        self.assert_fails_only("alpha-domain", capsys)


_ENTRIES = st.one_of(
    st.none(),
    st.integers(-10**6, 10**6),
    st.text(alphabet="ab%s.", max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def csv_blocks(draw):
    """Blocks whose float64 columns are separate arrays over a few shared value
    lists, so that columns repeat in bytes, or in value with the sign of zero
    flipped, beside float32 arrays, float lists and mixed entry lists."""
    floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(width=32, allow_nan=False,
                                                                      allow_infinity=False))
    pool = draw(st.lists(st.lists(floats, min_size=4, max_size=4), min_size=1, max_size=3))
    pool.append([-v if v == 0.0 else v for v in pool[0]])
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        rows = draw(st.integers(0, 4))
        columns = []
        for _ in range(draw(st.integers(1, 3))):
            values = draw(st.sampled_from(pool))[:rows]
            kind = draw(st.sampled_from(["float64", "float32", "list", "entries"]))
            if kind == "entries":
                columns.append(draw(st.lists(_ENTRIES, min_size=rows, max_size=rows)))
            else:
                columns.append(np.array(values, dtype=kind) if kind != "list" else list(values))
        blocks.append((tuple(draw(st.lists(_ENTRIES, max_size=3))), tuple(columns)))
    return blocks


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
        header = ["case", "time", "size", "value"]
        with pytest.raises(DivergenceError):
            _write_csv(path, "deadbeef", header, [block])
        assert list(tmp_path.iterdir()) == []
        # a file already at the path is neither replaced nor truncated
        path.write_text("earlier run\n")
        with pytest.raises(DivergenceError):
            _write_csv(path, "deadbeef", header, [block])
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "earlier run\n"

    def test_failure_after_a_written_block_keeps_the_earlier_file(self, tmp_path):
        # the first block is already in the partial file when the second fails
        path = tmp_path / "bad.csv"
        path.write_text("earlier run\n")
        good = (("ex1", 0.0), (np.array([1.0, 2.0]), np.array([3.0, 4.0])))
        bad = (("ex1", 0.5), (np.array([1.0, 2.0]), np.array([3.0, np.nan])))
        with pytest.raises(DivergenceError):
            _write_csv(path, "deadbeef", ["case", "time", "size", "value"], [good, bad])
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "earlier run\n"

    @pytest.mark.parametrize("columns", [([1.0, 2.0], [3.0]), ([1.0], [2.0, 3.0]), ([], [1.0])],
                             ids=["longer-first", "shorter-first", "empty-first"])
    def test_columns_of_unequal_length_are_refused(self, tmp_path, columns):
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError):
            _write_csv(path, "deadbeef", ["case", "size", "value"], [(("ex1",), columns)])
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=150, deadline=None)
    @given(blocks=csv_blocks())
    @example(blocks=[(("a%b",), (np.array([0.0, -0.0]),)), ((), (np.array([-0.0, 0.0]), ["%s", 7]))])
    @example(blocks=[(("ex1", 1.0), (np.array([]), [])), (("ex1", 2.0), (np.array([]), []))])
    def test_matches_row_by_row_reference(self, tmp_path_factory, blocks):
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        _write_csv(path, "deadbeef", ["h1", "h2"], blocks)
        lines = ["# config deadbeef", "h1,h2"] + [
            ",".join(map(_text, tuple(lead) + row))
            for lead, columns in blocks
            for row in zip(*columns)
        ]
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()

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

        formatted = []
        entries = cli_module._float_entries

        def recorded(values):
            formatted.append(values.tobytes())
            return entries(values)

        monkeypatch.setattr(cli_module, "_text", counted)
        monkeypatch.setattr(cli_module, "_float_entries", recorded)
        argv = ["solve", "--case", "ex1", "--method", "fvm", "--cells", "4000", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        # float64 columns skip ``_text``; leads and the short moment columns use it
        assert calls < 1000
        # the size column of all 11 snapshots once, each profile and moment column once
        sizes = cbelab.build_grid(cbelab.registry_case("ex1").rmax, 4000).midpoints.tobytes()
        assert formatted.count(sizes) == 1
        assert len(formatted) == 1 + 11 + 3

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


def _main_loads(tmp_path, argv: str, module: str) -> list[str]:
    """Run ``main(argv)`` in a fresh interpreter, in which ``import cbelab.cli``
    must not load ``module``; return the exit code and whether ``main`` loaded it."""
    code = (
        "import sys\n"
        "from cbelab.cli import main\n"
        f"assert {module!r} not in sys.modules\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, {module!r} in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cbelab.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv.split(), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    # optimize-alpha prints its result line first
    return result.stdout.split()[-2:]


@pytest.mark.parametrize(
    "argv",
    [
        "solve --case ex1 --method ham --alpha auto --cells 40",
        "solve --case ex1 --method fvm --cells 40",
        "reproduce fig1 --cells 40",
    ],
)
def test_commands_import_no_numpy_ma(tmp_path, argv):
    # np.unique and a few other numpy functions import numpy.ma on their first
    # call, which costs a fresh process 15-38 ms on a 2-core x86-64 host: no
    # command may reach one
    assert _main_loads(tmp_path, argv, "numpy.ma") == [str(EXIT_OK), "False"]


@pytest.mark.parametrize(
    "argv",
    [
        "solve --case ex1 --method fvm --cells 40",
        "solve --case ex1 --method ham --alpha auto --cells 40",
        "reproduce fig1 --cells 40",
        "eoc --case ex1 --method fvm --cell-list 10,20,40",
        "optimize-alpha --case ex1 --cells 40",
    ],
)
def test_commands_load_no_openssl(tmp_path, argv):
    # `import hashlib` loads _hashlib, which maps OpenSSL's libcrypto (about
    # 3.7 MB of peak RSS) for the one config digest a command takes.  validate
    # is left out: its np.random.default_rng imports numpy.random, which
    # imports secrets -> hmac -> _hashlib
    assert _main_loads(tmp_path, argv, "_hashlib") == [str(EXIT_OK), "False"]
