import json
import subprocess
import sys
from pathlib import Path


def test_acceptance_json_records_outcomes_and_check_lines(tmp_path):
    # one passing criterion and one that fails by design, in a pytest of their own
    report = tmp_path / "acceptance.json"
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py",
            "-k", "criterion_9_rhs_equivalence or criterion_5_ahpm_moments",
            "--acceptance-json", str(report),
        ],
        cwd=Path(__file__).parents[1],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1, result.stdout
    assert "2 acceptance tests, 1 passed" in result.stdout
    assert "every outcome matches BY_DESIGN" in result.stdout
    records = {record["id"]: record for record in json.loads(report.read_text())}
    assert set(records) == {"test_criterion_5_ahpm_moments", "test_criterion_9_rhs_equivalence"}
    failing, passing = records["test_criterion_5_ahpm_moments"], records["test_criterion_9_rhs_equivalence"]
    assert (failing["outcome"], failing["by_design"]) == ("failed", True)
    assert len(failing["checks"]) == 1
    assert failing["checks"][0].startswith("[criterion 5] FAIL ahpm M0: ")
    assert (passing["outcome"], passing["by_design"]) == ("passed", False)
    assert len(passing["checks"]) == 3
    assert all(line.startswith("[criterion 9] PASS ") for line in passing["checks"])
