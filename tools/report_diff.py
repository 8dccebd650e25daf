"""Compare two ``verify --out`` reports, field by field.

    python3 tools/report_diff.py OLD.json NEW.json

Prints the ``config`` keys whose values differ, the verdict counts of
both reports, and for every (field, norm) pair how many values moved and
the largest relative move |new - old| / |old|, with the result it
belongs to.  The fields are each result's ``lhs`` and ``rhs`` bounds,
``ratio``, ``verdict`` and ``note``, and each id's ``max_ratio`` and
``worst_margin`` (norm ``-``).  A move whose old or new value is not a
number (a changed note or verdict, a ratio that became or was None) has
no relative size: the line counts those moves by what happened
(``changed``, ``became None``, ``was None``) instead.  For a bound field
the line also counts the moves that widened the interval (``hi`` up or
``lo`` down) and those that narrowed it.  Then one line per id whose
``max_ratio`` or ``worst_margin`` moved gives both fields' old and new
values, and one line per id with a moved result counts the results
that moved in any field, such as ``results P3_sec: 90 of 200 moved``.
Results are matched by position, so both reports must list
the same (id, norm, dim, seed) in the same order.
Wall time is ignored.  The last line compares the files' bytes: it says
that they are byte-identical apart from the ``"wall_time_s"`` line, or
gives the first line that differs.  Exits 0 when nothing moved, 1 when
something did, and 2, with a one-line ``error:`` on stderr, on a wrong
argument count or a report that cannot be read.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path


def relative_move(old, new) -> float:
    """|new - old| / |old| of two numbers; inf when old is 0."""
    if old == new:
        return 0.0
    return math.inf if old == 0 else abs(new - old) / abs(old)


def what_happened(old, new) -> str:
    """How a value that is not a number on one side moved."""
    return "became None" if new is None else "was None" if old is None else "changed"


def result_fields(result: dict) -> dict:
    return {
        "lhs.lo": result["lhs"][0],
        "lhs.hi": result["lhs"][1],
        "rhs.lo": result["rhs"][0],
        "rhs.hi": result["rhs"][1],
        "ratio": result["ratio"],
        "verdict": result["verdict"],
        "note": result["note"],
    }


def label(result: dict) -> str:
    return f"{result['id']} n={result['dim']} seed={result['seed']}"


def moves(old: dict, new: dict) -> dict:
    """(field, norm) -> [count, largest relative move, label of that move, widened, kinds].

    The largest move is -1.0 while no move was between numbers.
    ``widened`` counts the moves of a bound field that widened its
    interval, and is None for every other field.  ``kinds`` counts the
    other moves by what_happened.
    """
    found: dict = {}

    def record(field, norm, a, b, where):
        if a == b:
            return
        bound = field.endswith((".lo", ".hi"))
        entry = found.setdefault((field, norm), [0, -1.0, "", 0 if bound else None, Counter()])
        entry[0] += 1
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            entry[4][what_happened(a, b)] += 1
            return
        move = relative_move(a, b)
        if move > entry[1]:
            entry[1], entry[2] = move, where
        if bound:
            # An interval widens when its hi moves up or its lo down.
            entry[3] += b > a if field.endswith(".hi") else b < a

    for a, b in zip(old["results"], new["results"]):
        fa, fb = result_fields(a), result_fields(b)
        for field in fa:
            record(field, a["norm"], fa[field], fb[field], label(a))
    ids_a, ids_b = old["summary"]["per_id"], new["summary"]["per_id"]
    for ineq in sorted(ids_a):
        for field in ("max_ratio", "worst_margin"):
            record(field, "-", ids_a[ineq][field], ids_b[ineq][field], ineq)
    return found


def per_id_moves(old: dict, new: dict) -> list[str]:
    """One line per id whose max_ratio or worst_margin moved, with the old and new value of each."""
    lines = []
    ids_a, ids_b = old["summary"]["per_id"], new["summary"]["per_id"]
    for ineq in sorted(ids_a):
        a, b = ids_a[ineq], ids_b[ineq]
        if (a["max_ratio"], a["worst_margin"]) != (b["max_ratio"], b["worst_margin"]):
            lines.append(
                f"id {ineq}: max_ratio {a['max_ratio']!r} -> {b['max_ratio']!r}, "
                f"worst_margin {a['worst_margin']!r} -> {b['worst_margin']!r}"
            )
    return lines


def results_moved(old: dict, new: dict) -> list[str]:
    """One line per id with a result that moved in any field, counting those results."""
    moved, total = Counter(), Counter()
    for a, b in zip(old["results"], new["results"]):
        total[a["id"]] += 1
        moved[a["id"]] += result_fields(a) != result_fields(b)
    return [f"results {ineq}: {moved[ineq]} of {total[ineq]} moved" for ineq in sorted(total) if moved[ineq]]


def diff(old: dict, new: dict) -> list[str]:
    """Lines of the comparison; the first starts with "no moves" when nothing moved."""
    lines = []
    keys = sorted(set(old["config"]) | set(new["config"]))
    changed = [k for k in keys if old["config"].get(k) != new["config"].get(k)]
    for key in changed:
        lines.append(f"config {key}: {old['config'].get(key)!r} -> {new['config'].get(key)!r}")
    for name, report in (("old", old), ("new", new)):
        counts = Counter(r["verdict"] for r in report["results"])
        lines.append(f"verdicts {name}: " + ", ".join(f"{v} {c}" for v, c in sorted(counts.items())))
    key = lambda r: (r["id"], r["norm"], r["dim"], r["seed"])  # noqa: E731
    if [key(r) for r in old["results"]] != [key(r) for r in new["results"]] or set(
        old["summary"]["per_id"]
    ) != set(new["summary"]["per_id"]):
        lines.append("results differ in (id, norm, dim, seed) or ids: values not compared")
        return lines
    found = moves(old, new)
    if not found and not changed:
        return ["no moves"] + lines
    for (field, norm), (count, largest, where, wider, kinds) in sorted(found.items()):
        line = f"moved {field} [{norm}]: {count} values"
        if largest >= 0.0:
            line += f", largest {largest:.3g} relative ({where})"
        if kinds:
            line += ", " + ", ".join(f"{c} {kind}" for kind, c in sorted(kinds.items()))
        if wider is not None:
            line += f"; {wider} widened, {count - wider} narrowed"
        lines.append(line)
    return lines + per_id_moves(old, new) + results_moved(old, new)


WALL_TIME_LINE = b'    "wall_time_s": '


def first_byte_difference(old: bytes, new: bytes) -> str:
    """Whether two report files differ only in their wall time line, or where they first differ."""
    lines_a, lines_b = old.split(b"\n"), new.split(b"\n")
    for number, (a, b) in enumerate(zip(lines_a, lines_b), 1):
        if a != b and not (a.startswith(WALL_TIME_LINE) and b.startswith(WALL_TIME_LINE)):
            shown = (line.decode(errors="replace").strip() for line in (a, b))
            return "bytes: first difference at line {}: {!r} -> {!r}".format(number, *shown)
    if len(lines_a) != len(lines_b):
        return f"bytes: first difference at line {min(len(lines_a), len(lines_b)) + 1}: one file ends before it"
    return 'bytes: identical apart from the "wall_time_s" line'


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("error: usage: report_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        raw = [Path(path).read_bytes() for path in argv]
        old, new = (json.loads(text) for text in raw)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = diff(old, new)
    print("\n".join(lines + [first_byte_difference(*raw)]))
    return 0 if lines[0] == "no moves" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
