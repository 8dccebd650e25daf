import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_counts.py"
ARGS = ("--ids", "all", "--trials", "5", "--dims", "2..6", "--seed", "42")


def parse(lines: list[str], unit: str) -> dict[str, tuple[int, float, float]]:
    """The table's rows after its header: (calls, calls per unit, calls out per unit) by file."""
    assert lines[0].split() == ["file", "calls", "calls/" + unit, "out/" + unit]
    return {row[0]: (int(row[1]), float(row[2]), float(row[3])) for row in (line.split() for line in lines[1:])}


def check_sums(rows: dict, count: int) -> None:
    """The file lines sum to the total line, and the per-unit columns are the counts over ``count``."""
    *files, (name, total) = rows.items()
    assert name == "total" and list(rows)[-2] == "other"
    assert sum(calls for _, (calls, _, _) in files) == total[0]
    for _, (calls, per, _) in files:
        assert per == round(calls / count, 1)
    # Each column entry is rounded to 0.1; calls out of the package and
    # within other code go to functions of the "other" line, less the
    # profiled entry point, which no profiled function calls.
    assert abs(sum(out for _, (_, _, out) in files) - total[2]) <= 0.05 * (len(files) + 1) + 1e-9
    assert 0 < total[2] <= rows["other"][1]


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """The tool's check count and per-file rows (parse) on ARGS, and the report of the same run."""
    out = tmp_path_factory.mktemp("calls") / "report.json"
    done = subprocess.run([sys.executable, str(TOOL), *ARGS, "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("checks:"))
    return int(lines[start].split()[1]), parse(lines[start + 1 :], "check"), json.loads(out.read_text())


def test_file_lines_sum_to_the_total_and_checks_match_the_report(counted):
    checks, rows, report = counted
    assert checks == len(report["results"]) == 34 * 5
    assert {"harness.py", "radius.py", "sectorial.py"} <= set(rows)
    check_sums(rows, checks)


def test_harness_calls_per_check_stay_capped(counted):
    # Each check evaluates its row's plan, written out once per input
    # count; walking the row's expressions on every check made 82.1 here.
    # A suite gate that takes the draw's proof tests nothing: 46.2 while
    # it verified every drawn input, 34.4 measured without, and 33.4 since
    # suite checks skip the validation of explicit inputs (_certify).
    _, rows, _ = counted
    assert rows["harness.py"][1] <= 34


def test_one_check_ops_stay_capped():
    # Each (id, dim, norm) runs as one benchmark suite op: run_suite of one
    # check, then to_json.  931.4 calls per op while the generator drew each
    # stream set in its own transform, the claim gate copied its inputs, the
    # coarse close ran numpy scalars and json's encoder wrote the config;
    # 676.1 while the suite gate verified drawn inputs; 612.8 once it took
    # the draw's proof; 532.1 once run_suite's config fields shared by
    # every op are written once per process, a suite draw's first radius
    # stage is one broadcast and the suite shell stopped scanning the
    # registry and validating drawn inputs; 512.6 measured since omega_n
    # sets its lanes up in one pass.  report.py's own functions took 82.1
    # calls per op before that cache and made 116.8 calls out of the
    # package (its share of json, numpy and the builtins); 71.2 and 93.8
    # measured since.
    args = ("--one-check", "--ids", "all", "--dims", "2..6", "--norms", "op,tr,fro,sp:3", "--seed", "42")
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "ops: 680"
    rows = parse(lines[1:], "op")
    check_sums(rows, 680)
    assert rows["total"][1] <= 522
    assert rows["report.py"][1] <= 72
    assert rows["report.py"][2] <= 95


def test_flat_ops_stay_capped():
    # Each op is one omega_n call on a densified Jordan block (n = 2..6) or
    # weighted shift (n = 3..6) in op, tr, fro or sp:3, at DEFAULT_CONTEXT's
    # grid and tolerance: a flat profile that a graded lane closes on one
    # eigvalsh.  134.7 calls per op, 11.1 in radius.py and 8.8 in linalg.py,
    # while the lane setup built a per-matrix list, screened the parts with
    # two any() reductions and a graded lane's first stage went through
    # _combined_norms; 108.2, 7.9 and 6.8 measured since.
    done = subprocess.run([sys.executable, str(TOOL), "--flat"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "ops: 36"
    rows = parse(lines[1:], "op")
    check_sums(rows, 36)
    assert rows["total"][1] <= 110.3
    assert rows["radius.py"][1] <= 8.0
    assert rows["linalg.py"][1] <= 6.9
