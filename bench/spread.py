"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload suite_small_n --seeds 1-10

For each metric it prints the median, the quartiles (statistics.quantiles
with n=4) and the inter-quartile distance as a share of the median, next to
the metric's bound from BENCHMARK.json. Runs are serial, one process at a
time; each run's full output stays under bench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["end_to_end"]
    values = {m["name"]: [] for m in group}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    for m in group:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        flag = "ok" if share < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:<38} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"iqr/median {share:.4f}  bound {m['bound']:<6g} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
