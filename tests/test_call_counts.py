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
    # A suite gate that takes the draw's proof tests nothing: 46.2 while
    # it verified every drawn input, 34.4 measured without.
    _, rows, _ = counted
    assert rows["harness.py"][1] <= 35


def test_one_check_ops_stay_capped():
    # Each (id, dim, norm) runs as one benchmark suite op: run_suite of one
    # check, then to_json.  931.4 calls per op while the generator drew each
    # stream set in its own transform, the claim gate copied its inputs, the
    # coarse close ran numpy scalars and json's encoder wrote the config;
    # 676.1 while the suite gate verified drawn inputs; 612.8 measured
    # since it takes the draw's proof.
    args = ("--one-check", "--ids", "all", "--dims", "2..6", "--norms", "op,tr,fro,sp:3", "--seed", "42")
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "ops: 680" and lines[1].split() == ["file", "calls", "calls/op"]
    rows = {row[0]: (int(row[1]), float(row[2])) for row in (line.split() for line in lines[2:])}
    assert sum(calls for name, (calls, _) in rows.items() if name != "total") == rows["total"][0]
    assert rows["total"][1] <= 625
