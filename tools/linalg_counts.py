"""Count the numpy.linalg calls and matrices per check of a ``verify`` run.

    python3 tools/linalg_counts.py --ids all --trials 200 --dims 2..6 --norms op,tr,fro,sp:3 --seed 42

Runs ``sector-radius verify`` in-process with exactly the given flags
(the tool adds none of its own) while wrapping numpy.linalg's
eigvalsh, eigh, eig, eigvals, svd, cholesky, solve, inv and qr.  After
verify's own output it prints one line per routine and a total line:
calls and matrices in all, then per check, where a call on a stack of
matrices counts each matrix of the stack, and the check count is that
of the report ``run_suite`` returns.  The package is imported from the
``src/`` beside this directory.  Exits with verify's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sector_radius import cli  # noqa: E402

ROUTINES = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "cholesky", "solve", "inv", "qr")


def count_verify(args: list[str]) -> tuple[int, int, dict[str, list[int]]]:
    """verify's exit code, its check count and the matrices of each call, by routine.

    The check count is 0 when verify stops before its suite runs.
    """
    counts: dict[str, list[int]] = {name: [] for name in ROUTINES}
    reports = []
    run_suite = cli.run_suite
    originals = {name: getattr(np.linalg, name) for name in ROUTINES}

    def counter(name, original):
        def counted(a, *rest, **kwargs):
            counts[name].append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
            return original(a, *rest, **kwargs)

        return counted

    def recorded(*rest, **kwargs):
        reports.append(run_suite(*rest, **kwargs))
        return reports[-1]

    try:
        for name, original in originals.items():
            setattr(np.linalg, name, counter(name, original))
        cli.run_suite = recorded
        code = cli.main(["verify", *args])
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)
        cli.run_suite = run_suite
    return code, sum(len(report.results) for report in reports), counts


def table(checks: int, counts: dict[str, list[int]]) -> list[str]:
    """The routine lines and the total line, per check where there are checks."""
    rows = [(name, len(sizes), sum(sizes)) for name, sizes in counts.items()]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    per = max(checks, 1)
    lines = [f"checks: {checks}", f"{'routine':<9} {'calls':>9} {'matrices':>10} {'calls/check':>12} {'matrices/check':>15}"]
    for name, calls, matrices in rows:
        lines.append(f"{name:<9} {calls:>9} {matrices:>10} {calls / per:>12.3f} {matrices / per:>15.3f}")
    return lines


def main(argv: list[str]) -> int:
    code, checks, counts = count_verify(argv)
    print("\n".join(table(checks, counts)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
