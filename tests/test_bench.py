"""The benchmark's own ops, run against the package as the benchmark runs them.

``bench/`` is read, never changed: round 0 of seed 1 of each workload is
built, a spread-out sample of its ops runs under the benchmark's tracer,
and the workload's own oracle judges every outcome.  A change that drops
or renames a name the benchmark reads (``DEFAULT_CONTEXT.grid`` and
``.refine_tol``, ``hermitian_norm``, the ``harness`` entry points the
tracer patches) fails here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SAMPLE = 8


def spread(wl, ops: list) -> list:
    """SAMPLE ops of a round: evenly spaced ids, each at the next dimension.

    A suite round lists every id at each of its dims, and the norm turns
    with both, so the sample meets every dim and every norm.
    """
    dims = len(getattr(wl, "dims", (None,)))
    ids = len(ops) // dims
    return [ops[(i * ids // SAMPLE) * dims + i % dims] for i in range(SAMPLE)]


@pytest.mark.parametrize("name", ["suite_small_n", "suite_large_n", "radius_flat"])
def test_round_zero_sample_is_judged_sound(name):
    wl = workloads.WORKLOADS[name]
    ops = spread(wl, wl.build_round(1, 0))
    tracer = tracing.Tracer()
    outcomes = []
    with tracer.installed():
        for k, op in enumerate(ops):
            try:
                outcomes.append(tracer.run_op(k, op.run))
            except Exception as exc:  # judged as a failed op, as the benchmark does
                outcomes.append(exc)
    failed = [op.label for op, out in zip(ops, outcomes) if wl.judge(op, out).failed]
    assert failed == [], failed
    layers = {span[0] for span in tracer.spans}
    assert set(wl.expected_layers) <= layers, set(wl.expected_layers) - layers
