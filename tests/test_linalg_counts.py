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
    check, omega_n = harness._certify, harness.omega_n

    def checked(*args, **kwargs):
        sequences.append([])
        return check(*args, **kwargs)

    def radius(spec, *mats, grid, refine_tol):
        sequences[-1].append(f"({grid},{refine_tol!r})")
        return omega_n(spec, *mats, grid=grid, refine_tol=refine_tol)

    monkeypatch.setattr(harness, "_certify", checked)
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


def blocks(lines: list[str]) -> dict[str, dict[str, tuple[int, int]]]:
    """The stage, stage/routine and routine blocks of the tool's output: name -> (calls, matrices)."""
    out, current = {}, None
    for line in lines:
        head = line.split(maxsplit=1)[0]
        if head in ("stage", "stage/routine", "routine"):
            current = out.setdefault(head, {})
        elif head in ("checks:", "radius"):
            current = None
        elif current is not None:
            current[head] = (int(line.split()[1]), int(line.split()[2]))
    return out


def summed(rows) -> tuple[int, int]:
    return tuple(map(sum, zip(*rows))) if rows else (0, 0)


def test_stage_routine_lines_split_the_stage_and_routine_lines():
    # One line per (stage, routine) pair with a call: for each stage they
    # add up to its stage line, and for each routine to its routine line.
    # Every draw is exact and proves its own hypothesis, so no draw makes
    # a numpy.linalg call and the tool prints no draw/ line.
    args = ("--ids", "T1_prod_sec_N,P3_sec,C_AD_prod2,B_prod4", "--trials", "3", "--dims", "3,16", "--norms", "op")
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    got = blocks(lines[next(k for k, line in enumerate(lines) if line.startswith("checks:")) :])
    pairs, stages, routines = got["stage/routine"], got["stage"], got["routine"]
    assert pairs and all(calls > 0 for calls, _ in pairs.values())
    for stage, want in stages.items():
        assert summed([v for key, v in pairs.items() if key.split("/")[0] == stage]) == want, stage
    for routine, want in routines.items():
        mine = [v for key, v in pairs.items() if routine in ("total", key.split("/")[1])]
        assert summed(mine) == want, routine
    assert [key for key in pairs if key.startswith("draw/")] == []
