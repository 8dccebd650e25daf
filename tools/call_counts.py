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
and a total line over all of them.  The check count is that of the
reports ``run_suite`` returns.  The package is imported from the
``src/`` beside this directory.  Exits with verify's exit code.

With ``--one-check`` first, the other flags are read as verify reads
them, but only ``--ids``, ``--dims``, ``--norms`` and ``--seed`` are
used: every (id, dim, norm) runs as one op of the benchmark's suite
workloads, ``run_suite([id], 1, [dim], [norm], seed)`` and then
``to_json()``, and the table counts the calls per op.  Exits 0.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sector_radius import cli  # noqa: E402
from sector_radius.norms import parse_norm  # noqa: E402

PACKAGE = Path(cli.__file__).resolve().parent


def _by_file(profile: cProfile.Profile) -> dict[str, int]:
    """The calls made to each package file's functions, and to every other function as ``other``."""
    calls = {path.name: 0 for path in sorted(PACKAGE.glob("*.py"))} | {"other": 0}
    for (filename, _, _), (_, total, _, _, _) in pstats.Stats(profile).stats.items():
        path = Path(filename).resolve()
        calls[path.name if path.parent == PACKAGE else "other"] += total
    return calls


def count_verify(args: list[str]) -> tuple[int, int, dict[str, int]]:
    """verify's exit code, its check count, and the calls made to each package file's functions."""
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


def count_one_check(args: list[str]) -> tuple[int, dict[str, int]]:
    """The op count of verify's flags ``args`` run one check at a time, and the calls made to each file's functions."""
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


def table(checks: int, calls: dict[str, int], unit: str = "check") -> list[str]:
    """The check (or op) count, one line per file and the total line: calls in all and per check."""
    per = max(checks, 1)
    rows = [*calls.items(), ("total", sum(calls.values()))]
    lines = [f"{unit}s: {checks}", f"{'file':<14} {'calls':>10} {'calls/' + unit:>12}"]
    return lines + [f"{name:<14} {count:>10} {count / per:>12.1f}" for name, count in rows]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one-check"]:
        ops, calls = count_one_check(argv[1:])
        print("\n".join(table(ops, calls, "op")))
        return 0
    code, checks, calls = count_verify(argv)
    print("\n".join(table(checks, calls)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
