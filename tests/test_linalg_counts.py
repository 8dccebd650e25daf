import subprocess
import sys
from collections import Counter
from pathlib import Path

from helpers import count_linalg_matrices
from sector_radius import harness
from sector_radius.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linalg_counts.py"
ROUTINES = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "cholesky", "solve", "inv", "qr")
ARGS = ("--ids", "P3_sec", "--trials", "2", "--dims", "3", "--norms", "op")
MIXED = ("--ids", "B_prod4,L2_block_tan,SA_omega_le_N", "--trials", "6", "--dims", "2,3", "--norms", "op,tr")


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


def test_radius_pass_lines_count_each_check_once(monkeypatch, capsys):
    # One line per sequence of (grid, refine_tol) radius passes, keyed on
    # the omega_n calls of each check: the counts add up to the checks and
    # match a record of the same run's calls.
    done = subprocess.run([sys.executable, str(TOOL), *MIXED], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("radius passes"))
    stop = next(k for k, line in enumerate(lines) if line.startswith("routine"))
    got = {line.rsplit(maxsplit=1)[0]: int(line.split()[-1]) for line in lines[start + 1 : stop]}

    sequences = []
    check, omega_n = harness._check, harness.omega_n

    def checked(*args, **kwargs):
        sequences.append([])
        return check(*args, **kwargs)

    def radius(spec, *mats, grid, refine_tol):
        sequences[-1].append(f"({grid},{refine_tol!r})")
        return omega_n(spec, *mats, grid=grid, refine_tol=refine_tol)

    monkeypatch.setattr(harness, "_check", checked)
    monkeypatch.setattr(harness, "omega_n", radius)
    assert main(["verify", *MIXED]) == 0
    capsys.readouterr()
    want = Counter("->".join(seq) or "none" for seq in sequences)
    assert got == dict(want) and sum(got.values()) == 18
    assert got["none"] == 6 and got["(4,1.0)"] > 0


def test_stage_lines_split_the_calls_by_draw_and_gate(monkeypatch, capsys):
    # draw, gate and rest partition the routine calls, so they add up to the
    # total line; the draw and gate lines match a count taken inside
    # harness._draw and harness._check_hypothesis on the same run.
    args = ("--ids", "T1_prod_sec_N,T_onetan_min,P3_sec", "--trials", "4", "--dims", "3,5", "--norms", "op,tr")
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("stage"))
    got = {row[0]: (int(row[1]), int(row[2])) for row in (line.split() for line in lines[start + 1 : start + 4])}
    assert list(got) == ["draw", "gate", "rest"]
    total = lines[-1].split()
    assert tuple(map(sum, zip(*got.values()))) == (int(total[1]), int(total[2]))

    counts = count_linalg_matrices(monkeypatch, ROUTINES)
    stages = {"draw": [], "gate": []}

    def staged(name, original):
        def run(*rest, **kwargs):
            before = len(counts)
            try:
                return original(*rest, **kwargs)
            finally:
                stages[name].extend(counts[before:])

        return run

    monkeypatch.setattr(harness, "_draw", staged("draw", harness._draw))
    monkeypatch.setattr(harness, "_check_hypothesis", staged("gate", harness._check_hypothesis))
    assert main(["verify", *args]) == 0
    capsys.readouterr()
    for name, sizes in stages.items():
        assert got[name] == (len(sizes), sum(sizes)), name
    per_check = [float(x) for x in lines[start + 2].split()[3:]]
    assert per_check == [round(len(stages["gate"]) / 12, 3), round(sum(stages["gate"]) / 12, 3)]
