import json
from pathlib import Path

import pytest

from cbelab import DivergenceError
from cbelab.cli import (
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

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        import cbelab.cli as cli_module

        def explode(*args, **kwargs):
            raise DivergenceError("synthetic blow-up")

        monkeypatch.setattr(cli_module, "integrate", explode)
        code = main(
            ["solve", "--case", "ex1", "--cells", "40", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_NUMERICAL

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_series_maps_to_exit_3(self, tmp_path):
        # AHPM term degrees double with the order and overflow on a wide domain
        code = main(
            [
                "solve", "--case", "ex1", "--method", "ahpm", "--order", "9",
                "--cells", "20", "--rmax", "200", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_NUMERICAL


class TestEocCommand:
    def test_rejects_non_doubling_cells(self, tmp_path):
        code = main(
            [
                "eoc", "--case", "ex1", "--method", "fvm",
                "--cell-list", "30,90", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_USAGE

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


class TestValidateCommand:
    def test_validate_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "v"
        assert main(["validate", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "validate.json").read_text())
        assert report["passed"] is True
        names = {check["name"] for check in report["checks"]}
        assert "oracle-equivalence" in names

    def test_validate_rejects_bad_config(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("method=fvm\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_USAGE

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
    def test_non_finite_values_abort(self, tmp_path):
        from cbelab import DivergenceError as DivErr
        from cbelab.cli import _write_csv

        with pytest.raises(DivErr):
            _write_csv(
                tmp_path / "bad.csv", "deadbeef", ["a"], [[float("nan")]]
            )

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
