"""Time ``check_inequality`` per id on drawn inputs: the cost of the tight path.

    python3 tools/check_times.py --draws 8 --dims 4,16 --norms op,sp:3

For every id and every dimension it draws ``--draws`` inputs with
``generate_inputs`` (trial t from seed ``mix_seed(0, position, t)``,
position the id's registry position) and, in every norm, times one
``check_inequality`` call on each, every radius certified to
``DEFAULT_CONTEXT.refine_tol`` from grid 32.  After a title line and a
header it prints one row per id with the median wall time in
milliseconds of each (dimension, norm) column, and a last ``median`` row
with each column's median over the ids.  Classical ids run in op
whatever the column's norm.  Numpy runs on one BLAS thread, fixed
before it loads, as in ``bench/run.py``.  The package is imported from
the ``src/`` beside this directory.  The defaults are the settings
shown above.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SECTOR_RADIUS_THREADS", None)

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sector_radius.cli import _parse_dims  # noqa: E402
from sector_radius.generator import mix_seed  # noqa: E402
from sector_radius.harness import REGISTRY, check_inequality, generate_inputs  # noqa: E402
from sector_radius.norms import parse_norm  # noqa: E402


def check_times(draws: int, dims, norms) -> dict[str, list[float]]:
    """The median seconds of check_inequality per id, one entry per (dim, norm) in that order."""
    times = {}
    for position, (ineq, info) in enumerate(REGISTRY.items()):
        row = []
        for n in dims:
            inputs = [generate_inputs(info, n, mix_seed(0, position, t)) for t in range(draws)]
            for norm in norms:
                samples = []
                for mats in inputs:
                    start = time.perf_counter()
                    check_inequality(ineq, mats, norm)
                    samples.append(time.perf_counter() - start)
                row.append(statistics.median(samples))
        times[ineq.value] = row
    return times


def table(times: dict[str, list[float]], labels: list[str]) -> list[str]:
    """A header, one line per id and the median line, in milliseconds."""
    lines = [f"{'id':<18}" + "".join(f" {label:>10}" for label in labels)]
    medians = [statistics.median(column) for column in zip(*times.values())]
    for name, row in [*times.items(), ("median", medians)]:
        lines.append(f"{name:<18}" + "".join(f" {1e3 * t:>10.3f}" for t in row))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="check_times.py", description="Median check_inequality time per id.")
    parser.add_argument("--draws", type=int, default=8)
    parser.add_argument("--dims", type=_parse_dims, default=[4, 16])
    parser.add_argument("--norms", default="op,sp:3")
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    norms = [parse_norm(t) for t in args.norms.split(",") if t.strip()]
    times = check_times(args.draws, args.dims, norms)
    print(f"median ms of check_inequality over {args.draws} draws")
    print("\n".join(table(times, [f"n{n}/{norm.label}" for n in args.dims for norm in norms])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
