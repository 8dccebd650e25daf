import subprocess
import sys
from pathlib import Path

from sector_radius.harness import all_ids

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_times.py"


def test_one_row_per_id_and_a_median_row():
    # The smallest settings: one draw of each id at n = 2 in op.  Times
    # vary by host, so only the layout is checked.
    done = subprocess.run([sys.executable, str(TOOL), "--draws", "1", "--dims", "2", "--norms", "op"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["id", "n2/op"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [ineq.value for ineq in all_ids()] + ["median"]
    assert all(len(row) == 2 for row in rows)
