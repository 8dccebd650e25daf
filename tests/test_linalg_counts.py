import subprocess
import sys
from pathlib import Path

from helpers import count_linalg_matrices
from sector_radius.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linalg_counts.py"
ROUTINES = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "cholesky", "solve", "inv", "qr")
ARGS = ("--ids", "P3_sec", "--trials", "2", "--dims", "3", "--norms", "op")


def test_totals_match_a_count_of_the_same_verify_run(monkeypatch, capsys):
    done = subprocess.run([sys.executable, str(TOOL), *ARGS], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    checks = int(next(line for line in lines if line.startswith("checks:")).split()[1])
    total = lines[-1].split()
    assert total[0] == "total"

    counts = count_linalg_matrices(monkeypatch, ROUTINES)
    inverses = count_linalg_matrices(monkeypatch, ("inv",))
    assert main(["verify", *ARGS]) == 0
    capsys.readouterr()
    assert checks == 2
    assert (int(total[1]), int(total[2])) == (len(counts), sum(counts))
    assert (float(total[3]), float(total[4])) == (round(len(counts) / 2, 3), round(sum(counts) / 2, 3))
    # The index of each sectorial input takes one inverse of the gate's factor.
    inv = next(line.split() for line in lines if line.startswith("inv "))
    assert inverses and (int(inv[1]), int(inv[2])) == (len(inverses), sum(inverses))
