"""Shared fixtures, and the acceptance report.

``pytest --acceptance-json PATH`` writes one record per ``test_acceptance.py``
test: its id, its outcome, whether it fails by design, and the
``[criterion N] PASS/FAIL`` lines it printed.  The terminal summary then names
every acceptance test whose outcome differs from ``BY_DESIGN``; the report
changes no outcome.
"""

import json

import numpy as np
import pytest

from cbelab import registry_case

# the published criteria this implementation misses by design (README, "Acceptance status")
BY_DESIGN = (
    "test_criterion_1_final_doubling_order[fvm-0.95-1.2]",
    "test_criterion_1_final_doubling_order[ham-0.9-1.05]",
    "test_criterion_1_final_doubling_order[ahpm-0.95-1.05]",
    "test_criterion_3_ham_moments[m2]",
    "test_criterion_5_ahpm_moments",
    "test_criterion_8_optimal_alpha_window[ex3-3--0.9--0.75]",
)


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-json",
        metavar="PATH",
        help="write each acceptance test's outcome and check lines to PATH as JSON",
    )


def pytest_configure(config):
    path = config.getoption("acceptance_json")
    if path:
        config.pluginmanager.register(_AcceptanceReport(path), "acceptance-report")


class _AcceptanceReport:
    def __init__(self, path: str) -> None:
        self.path = path
        self.records: dict[str, dict] = {}

    def pytest_runtest_logreport(self, report):
        module, _, test_id = report.nodeid.partition("::")
        # the call phase, or the setup phase when it failed or skipped the test
        if not module.endswith("test_acceptance.py") or report.when == "teardown":
            return
        if report.when == "setup" and report.passed:
            return
        self.records[test_id] = {
            "id": test_id,
            "outcome": report.outcome,
            "by_design": test_id in BY_DESIGN,
            "checks": [line for line in report.capstdout.splitlines() if line.startswith("[criterion ")],
        }

    def pytest_sessionfinish(self, session):
        with open(self.path, "w", encoding="utf-8") as out:
            json.dump(list(self.records.values()), out, indent=2)
            out.write("\n")

    def pytest_terminal_summary(self, terminalreporter):
        records = self.records.values()
        passed = sum(record["outcome"] == "passed" for record in records)
        terminalreporter.write_sep("-", f"acceptance report: {self.path}")
        terminalreporter.write_line(f"{len(records)} acceptance tests, {passed} passed")
        unexpected = [
            record for record in records if record["outcome"] != ("failed" if record["by_design"] else "passed")
        ]
        if unexpected:
            terminalreporter.write_line("outcome differs from BY_DESIGN:")
            for record in unexpected:
                terminalreporter.write_line(f"  {record['id']}: {record['outcome']}")
        else:
            terminalreporter.write_line("every outcome matches BY_DESIGN")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def ex1():
    return registry_case("ex1")


@pytest.fixture
def ex2():
    return registry_case("ex2")


@pytest.fixture
def ex3():
    return registry_case("ex3")
