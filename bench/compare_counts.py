"""Compare the count metrics and report digests of two traced runs.

    python3 bench/compare_counts.py bench/out/A-trace1.json bench/out/B-trace1.json

Count metrics (units ``count`` and ``frac`` in BENCHMARK.json) are
deterministic for a given seed and program, so two traced runs with the same
seed must agree exactly; the exit code is 1 if any differs. Digests of the
round-0 results are printed but not gated: a change that moves values on
purpose moves them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "frac")]
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    differ = [name for name in counts if a["metrics"][name] != b["metrics"][name]]
    for name in differ:
        print(f"DIFFERS {name}: {a['metrics'][name]!r} vs {b['metrics'][name]!r}")
    print(f"{len(counts) - len(differ)} of {len(counts)} count metrics identical")
    digests = (a["record"]["round0_digest"], b["record"]["round0_digest"])
    print(f"round-0 digests {'identical' if digests[0] == digests[1] else 'differ'}: {digests}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
