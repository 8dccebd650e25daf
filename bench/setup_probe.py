"""Child process whose start-up the benchmark times as ``setup_s``.

It imports the package and its CLI module, runs one small check through
``run_suite`` and serialises the report (the first op's lazy set-up), then
prints ``ready``. Usage: ``python3 bench/setup_probe.py <src dir> <seed>``.
"""

import sys

sys.path.insert(0, sys.argv[1])

import sector_radius  # noqa: E402
import sector_radius.cli  # noqa: E402,F401

report = sector_radius.run_suite(
    ["T1_prod_sec_N"], 1, [2], [sector_radius.OPERATOR], seed=int(sys.argv[2])
)
report.to_json()
print("ready", flush=True)
