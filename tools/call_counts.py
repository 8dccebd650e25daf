"""Count the Python calls per check of a ``verify`` run, by source file of the package.

    python3 tools/call_counts.py --ids all --trials 40 --dims 2..6 --norms op,tr,fro,sp:3 --seed 42 --out PATH
    python3 tools/call_counts.py --one-check --ids all --dims 2..6 --norms op,tr,fro,sp:3 --seed 42

Runs ``sector-radius verify`` in-process under cProfile with exactly the
given flags (the tool adds none of its own).  Give ``--out PATH`` to
count the report writer too: without it verify writes no report, and
``SuiteReport.to_json`` is never called.  After verify's own output
it prints the check count, one line per source file of the
``sector_radius`` package with the calls of the functions defined there
(recursive calls included), in all and per check, an ``other`` line for
every other function profiled (numpy, the standard library, builtins),
and a total line over all of them.  Functions are told apart by code
object, so each dataclass's generated ``__init__``, ``__eq__`` and
``__hash__`` counts.  A last column counts, per check, the calls that a
line's functions make directly to functions outside the package, so
that work a file hands to numpy, json or a builtin shows under that
file; on the ``other`` line these are calls within non-package code.
The check count is that of the reports ``run_suite`` returns.  The
package is imported from the ``src/`` beside this directory.  Exits
with verify's exit code.

With ``--one-check`` first, the other flags are read as verify reads
them, but only ``--ids``, ``--dims``, ``--norms`` and ``--seed`` are
used: every (id, dim, norm) runs as one op of the benchmark's suite
workloads, ``run_suite([id], 1, [dim], [norm], seed)`` and then
``to_json()``, and the table counts the calls per op.  Exits 0.

    python3 tools/call_counts.py --flat

With ``--flat`` alone, the ops are ``omega_n`` calls on flat angle
profiles, as the benchmark's ``radius_flat`` workload makes them: the
Jordan blocks J_n, n = 2..6, and weighted shifts with weights drawn in
[0.5, 2], n = 3..6, each densified as phase * U S U* by a unitary U and
phase drawn from fixed seeds (the fixtures of ``tests/test_radius.py``),
in op, tr, fro and sp:3, one call each at ``DEFAULT_CONTEXT``'s grid and
tolerance.  The table counts the calls per op.  Exits 0.
"""

from __future__ import annotations

import cProfile
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sector_radius import DEFAULT_CONTEXT, DEFAULT_NORMS, GenConfig, cli, omega_n, random_unitary  # noqa: E402
from sector_radius.norms import parse_norm  # noqa: E402

PACKAGE = Path(cli.__file__).resolve().parent


def _row(code) -> str:
    """The table row of a profiled function: its package file's name, or ``other``.

    ``code`` is a profile entry's code object, or a string naming a builtin.
    """
    if isinstance(code, str):
        return "other"
    path = Path(code.co_filename).resolve()
    return path.name if path.parent == PACKAGE else "other"


def _by_file(profile: cProfile.Profile) -> dict[str, tuple[int, int]]:
    """(calls made to its functions, calls they make to non-package functions) per package file, and as ``other``.

    ``other`` holds every function outside the package.  Each profile
    entry is one code object, so functions that share a file, line and
    name (such as the ``__init__`` that dataclasses generate in
    ``<string>``) each count, where pstats would merge them.  The second
    count is read from each function's calls to non-package functions,
    so work that a file hands to numpy, json or a builtin shows under
    that file.
    """
    calls = {path.name: [0, 0] for path in sorted(PACKAGE.glob("*.py"))} | {"other": [0, 0]}
    for entry in profile.getstats():
        row = calls[_row(entry.code)]
        row[0] += entry.callcount
        for sub in entry.calls or ():
            if _row(sub.code) == "other":
                row[1] += sub.callcount - sub.reccallcount
    return {name: (into, out) for name, (into, out) in calls.items()}


def count_verify(args: list[str]) -> tuple[int, int, dict[str, tuple[int, int]]]:
    """verify's exit code, its check count, and each row's calls as _by_file counts them."""
    reports = []
    run_suite = cli.run_suite

    def recorded(*rest, **kwargs):
        reports.append(run_suite(*rest, **kwargs))
        return reports[-1]

    profile = cProfile.Profile()
    cli.run_suite = recorded
    try:
        code = profile.runcall(cli.main, ["verify", *args])
    finally:
        cli.run_suite = run_suite
    return code, sum(len(report.results) for report in reports), _by_file(profile)


def count_one_check(args: list[str]) -> tuple[int, dict[str, tuple[int, int]]]:
    """The op count of verify's flags ``args`` run one check at a time, and each row's calls as _by_file counts them."""
    flags = cli.build_parser().parse_args(["verify", *args])
    ids = cli.all_ids() if flags.ids == "all" else flags.ids
    norms = [parse_norm(t) for t in flags.norms.split(",") if t.strip()]
    ops = [(i, dim, norm) for i in ids for dim in flags.dims for norm in norms]

    def run():
        for i, dim, norm in ops:
            cli.run_suite([i], 1, [dim], [norm], flags.seed).to_json()

    profile = cProfile.Profile()
    profile.runcall(run)
    return len(ops), _by_file(profile)


def _densified(S: np.ndarray, seed: int) -> np.ndarray:
    """phase * U S U* for a unitary U and unimodular phase drawn from ``seed``."""
    U = random_unitary(GenConfig(S.shape[0], seed))
    phase = np.exp(2j * math.pi * np.random.default_rng(seed).random())
    return phase * (U @ S.astype(complex) @ U.conj().T)


def flat_fixtures() -> list[np.ndarray]:
    """The densified Jordan blocks n = 2..6 and weighted shifts n = 3..6 that ``--flat`` runs."""
    jordans = [_densified(np.diag(np.ones(n - 1), 1), 30 + n) for n in range(2, 7)]
    shifts = [_densified(np.diag(np.random.default_rng(40 + n).uniform(0.5, 2.0, n - 1), 1), 50 + n) for n in range(3, 7)]
    return jordans + shifts


def count_flat() -> tuple[int, dict[str, tuple[int, int]]]:
    """The op count of the flat fixtures in every default norm, and each row's calls as _by_file counts them."""
    ops = [(spec, X) for X in flat_fixtures() for spec in DEFAULT_NORMS]
    grid, refine_tol = DEFAULT_CONTEXT.grid, DEFAULT_CONTEXT.refine_tol

    def run():
        for spec, X in ops:
            omega_n(spec, X, grid=grid, refine_tol=refine_tol)

    profile = cProfile.Profile()
    profile.runcall(run)
    return len(ops), _by_file(profile)


def table(checks: int, calls: dict[str, tuple[int, int]], unit: str = "check") -> list[str]:
    """The check (or op) count, one line per file and the total line.

    Each line gives the calls made to the row's functions, in all and per
    check, and the calls per check that they make to non-package
    functions.
    """
    per = max(checks, 1)
    rows = [*calls.items(), ("total", tuple(map(sum, zip(*calls.values()))))]
    lines = [f"{unit}s: {checks}", f"{'file':<14} {'calls':>10} {'calls/' + unit:>12} {'out/' + unit:>10}"]
    return lines + [f"{name:<14} {into:>10} {into / per:>12.1f} {out / per:>10.1f}" for name, (into, out) in rows]


def main(argv: list[str]) -> int:
    if argv == ["--flat"]:
        ops, calls = count_flat()
        print("\n".join(table(ops, calls, "op")))
        return 0
    if argv[:1] == ["--one-check"]:
        ops, calls = count_one_check(argv[1:])
        print("\n".join(table(ops, calls, "op")))
        return 0
    code, checks, calls = count_verify(argv)
    print("\n".join(table(checks, calls)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
