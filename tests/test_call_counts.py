import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_counts.py"
ARGS = ("--ids", "all", "--trials", "5", "--dims", "2..6", "--seed", "42")


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """The tool's check count and per-file rows (calls, calls per check) on ARGS, and the report of the same run."""
    out = tmp_path_factory.mktemp("calls") / "report.json"
    done = subprocess.run([sys.executable, str(TOOL), *ARGS, "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("checks:"))
    rows = {row[0]: (int(row[1]), float(row[2])) for row in (line.split() for line in lines[start + 2 :])}
    return int(lines[start].split()[1]), rows, json.loads(out.read_text())


def test_file_lines_sum_to_the_total_and_checks_match_the_report(counted):
    checks, rows, report = counted
    assert checks == len(report["results"]) == 34 * 5
    *files, (name, total) = rows.items()
    assert name == "total" and list(rows)[-2] == "other"
    assert {"harness.py", "radius.py", "sectorial.py"} <= set(rows)
    assert sum(calls for _, (calls, _) in files) == total[0]
    for _, (calls, per_check) in files:
        assert per_check == round(calls / checks, 1)


def test_harness_calls_per_check_stay_capped(counted):
    # Each check evaluates its row's plan, written out once per input
    # count; walking the row's expressions on every check made 82.1 here.
    _, rows, _ = counted
    assert rows["harness.py"][1] <= 55
