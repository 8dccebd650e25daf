"""Count the numpy.linalg calls and matrices per check of a ``verify`` run.

    python3 tools/linalg_counts.py --ids all --trials 200 --dims 2..6 --norms op,tr,fro,sp:3 --seed 42

Runs ``sector-radius verify`` in-process with exactly the given flags
(the tool adds none of its own) while wrapping numpy.linalg's
eigvalsh, eigh, eig, eigvals, svd, cholesky, solve, inv and qr, and the
harness's ``omega_n``.  After verify's own output it prints the check
count, then how many checks ended after each sequence of radius passes,
such as ``(4,1.0)`` or ``(4,1.0)->(8,0.2)->(32,1e-10)`` (one
``(grid,refine_tol)`` per ``omega_n`` call of the check, ``none`` for a
check that computes no radius), then one line per routine and a total
line: calls and matrices in all, then per check, where a call on a stack
of matrices counts each matrix of the stack, and the check count is that
of the report ``run_suite`` returns.  The package is imported from the
``src/`` beside this directory.  Exits with verify's exit code.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sector_radius import cli, harness  # noqa: E402

ROUTINES = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "cholesky", "solve", "inv", "qr")


def count_verify(args: list[str]) -> tuple[int, int, dict[str, list[int]], Counter]:
    """verify's exit code, its check count, the matrices of each call by routine, and checks per pass sequence.

    A sequence is the tuple of (grid, refine_tol) of the check's omega_n
    calls in order.  The check count is 0 when verify stops before its
    suite runs.
    """
    counts: dict[str, list[int]] = {name: [] for name in ROUTINES}
    reports = []
    sequences: list[list[tuple[int, float]]] = []
    run_suite, check, omega_n = cli.run_suite, harness._check, harness.omega_n
    originals = {name: getattr(np.linalg, name) for name in ROUTINES}

    def counter(name, original):
        def counted(a, *rest, **kwargs):
            counts[name].append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
            return original(a, *rest, **kwargs)

        return counted

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
        code = cli.main(["verify", *args])
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)
        cli.run_suite, harness._check, harness.omega_n = run_suite, check, omega_n
    return code, sum(len(report.results) for report in reports), counts, Counter(map(tuple, sequences))


def pass_lines(passes: Counter) -> list[str]:
    """One line per radius-pass sequence with its check count, shortest sequence first."""
    lines = [f"{'radius passes':<40} {'checks':>9}"]
    for seq in sorted(passes, key=lambda seq: (len(seq), seq)):
        label = "->".join(f"({grid},{tol!r})" for grid, tol in seq) or "none"
        lines.append(f"{label:<40} {passes[seq]:>9}")
    return lines


def table(checks: int, counts: dict[str, list[int]], passes: Counter) -> list[str]:
    """The check count, the radius-pass lines, the routine lines and the total line (per check where there are checks)."""
    rows = [(name, len(sizes), sum(sizes)) for name, sizes in counts.items()]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    per = max(checks, 1)
    header = f"{'routine':<9} {'calls':>9} {'matrices':>10} {'calls/check':>12} {'matrices/check':>15}"
    lines = [f"checks: {checks}", *pass_lines(passes), header]
    for name, calls, matrices in rows:
        lines.append(f"{name:<9} {calls:>9} {matrices:>10} {calls / per:>12.3f} {matrices / per:>15.3f}")
    return lines


def main(argv: list[str]) -> int:
    code, checks, counts, passes = count_verify(argv)
    print("\n".join(table(checks, counts, passes)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
