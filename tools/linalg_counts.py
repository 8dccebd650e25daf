"""Count the numpy.linalg calls and matrices per check of a ``verify`` run.

    python3 tools/linalg_counts.py --ids all --trials 200 --dims 2..6 --norms op,tr,fro,sp:3 --seed 42

Runs ``sector-radius verify`` in-process with exactly the given flags
(the tool adds none of its own) while wrapping numpy.linalg's
eigvalsh, eigh, eig, eigvals, svd, cholesky, solve, inv and qr, and the
harness's ``omega_n``, ``_draw`` and ``_check_hypothesis``.  After
verify's own output it prints the check count; numpy.linalg calls and
matrices by stage, ``draw`` (inside ``_draw``: the inputs and their
sector claims), ``gate`` (inside ``_check_hypothesis``: the hypothesis
and the sector data) and ``rest`` (everything else: radii, norms,
blocks); one line per (stage, routine) pair that made a call, such as
``gate/cholesky``, which split each stage line; how many checks ended
after each sequence of radius passes, such as ``(4,1.0)`` or
``(4,1.0)->(8,0.2)->(32,1e-10)`` (one ``(grid,refine_tol)`` per
``omega_n`` call of the check, ``none`` for a check that computes no
radius); and last one line per routine and a total line.  Stage, pair
and routine lines give calls and matrices in all, then per check, where
a call on a stack of matrices counts each matrix of the stack and the
check count is that of the report ``run_suite`` returns.  The package
is imported from the ``src/`` beside this directory.  Exits with
verify's exit code.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sector_radius import cli, harness  # noqa: E402

ROUTINES = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "cholesky", "solve", "inv", "qr")
STAGES = ("draw", "gate", "rest")


def count_verify(args: list[str]) -> tuple[int, int, dict[tuple[str, str], list[int]], Counter]:
    """verify's exit code and check count, the matrices of each call by (stage, routine), and checks per pass sequence.

    A sequence is the tuple of (grid, refine_tol) of the check's omega_n
    calls in order.  The check count is 0 when verify stops before its
    suite runs.
    """
    calls: dict[tuple[str, str], list[int]] = {(st, name): [] for st in STAGES for name in ROUTINES}
    stage = ["rest"]
    reports = []
    sequences: list[list[tuple[int, float]]] = []
    run_suite, check, omega_n = cli.run_suite, harness._check, harness.omega_n
    draw, gate = harness._draw, harness._check_hypothesis
    originals = {name: getattr(np.linalg, name) for name in ROUTINES}

    def counter(name, original):
        def counted(a, *rest, **kwargs):
            calls[stage[0], name].append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
            return original(a, *rest, **kwargs)

        return counted

    def staged(name, original):
        def run(*rest, **kwargs):
            stage[0] = name
            try:
                return original(*rest, **kwargs)
            finally:
                stage[0] = "rest"

        return run

    def recorded(*rest, **kwargs):
        reports.append(run_suite(*rest, **kwargs))
        return reports[-1]

    def checked(*rest, **kwargs):
        sequences.append([])
        return check(*rest, **kwargs)

    def radius(spec, *mats, grid, refine_tol):
        sequences[-1].append((grid, refine_tol))
        return omega_n(spec, *mats, grid=grid, refine_tol=refine_tol)

    try:
        for name, original in originals.items():
            setattr(np.linalg, name, counter(name, original))
        cli.run_suite, harness._check, harness.omega_n = recorded, checked, radius
        harness._draw, harness._check_hypothesis = staged("draw", draw), staged("gate", gate)
        code = cli.main(["verify", *args])
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)
        cli.run_suite, harness._check, harness.omega_n = run_suite, check, omega_n
        harness._draw, harness._check_hypothesis = draw, gate
    checks = sum(len(report.results) for report in reports)
    return code, checks, calls, Counter(map(tuple, sequences))


def pass_lines(passes: Counter) -> list[str]:
    """One line per radius-pass sequence with its check count, shortest sequence first."""
    lines = [f"{'radius passes':<40} {'checks':>9}"]
    for seq in sorted(passes, key=lambda seq: (len(seq), seq)):
        label = "->".join(f"({grid},{tol!r})" for grid, tol in seq) or "none"
        lines.append(f"{label:<40} {passes[seq]:>9}")
    return lines


def rows_of(label: str, counts: dict[str, list[int]], checks: int) -> list[str]:
    """A header under ``label`` and one line per key of ``counts``: calls and matrices in all and per check."""
    per = max(checks, 1)
    lines = [f"{label:<14} {'calls':>9} {'matrices':>10} {'calls/check':>12} {'matrices/check':>15}"]
    for name, sizes in counts.items():
        calls, matrices = len(sizes), sum(sizes)
        lines.append(f"{name:<14} {calls:>9} {matrices:>10} {calls / per:>12.3f} {matrices / per:>15.3f}")
    return lines


def table(checks: int, calls: dict[tuple[str, str], list[int]], passes: Counter) -> list[str]:
    """The check count, the stage lines, the (stage, routine) lines, the radius-pass lines, the routine lines and their total line."""
    by_stage = {st: [m for name in ROUTINES for m in calls[st, name]] for st in STAGES}
    pairs = {f"{st}/{name}": calls[st, name] for st in STAGES for name in ROUTINES if calls[st, name]}
    by_routine = {name: [m for st in STAGES for m in calls[st, name]] for name in ROUTINES}
    total = {"total": [m for sizes in by_routine.values() for m in sizes]}
    return [
        f"checks: {checks}",
        *rows_of("stage", by_stage, checks),
        *rows_of("stage/routine", pairs, checks),
        *pass_lines(passes),
        *rows_of("routine", {**by_routine, **total}, checks),
    ]


def main(argv: list[str]) -> int:
    code, checks, calls, passes = count_verify(argv)
    print("\n".join(table(checks, calls, passes)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
