"""sector-radius benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload suite_small_n --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and builds nothing. With ``--trace 0`` it times ``setup_s`` in fresh
interpreters, then runs whole rounds of the workload (see workloads.py)
back to back, as many as take ``--seconds`` seconds on the reference host,
judges every op against its oracle outside the timed loop, and prints the
end-to-end metrics, with every time scaled to the reference host's speed
(see ``HostSpeed``). With ``--trace 1`` it runs round 0 untraced and then traced, at least twice
traced, and prints the per-layer metrics of the traced passes and the
tracing overhead.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics. The full record of
the run, including the environment, the host's speed and, for traced
runs, every span, is written under ``bench/out/``, one file per run. The
metric names and units come from ``BENCHMARK.json``.
"""

import os
import sys

# One BLAS thread, fixed before numpy loads; the package's own thread pool
# stays at its serial default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SECTOR_RADIUS_THREADS", None)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# A bare interpreter's start-up on the reference host; scales setup_s.
BARE_START_REF_S = 0.040


def _import_package():
    pkg = SRC / "sector_radius"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: package source {pkg} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sector_radius

    if Path(sector_radius.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported sector_radius from {sector_radius.__file__}, not {pkg}")


_import_package()

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# --- environment --------------------------------------------------------------


def environment(seed: int) -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}) for k in ("blas", "lapack")}
    except TypeError:  # numpy < 1.25 prints its configuration only
        blas = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "SECTOR_RADIUS_THREADS": os.environ.get("SECTOR_RADIUS_THREADS"),
    }


class HostSpeed:
    """Tracks the host's speed with a fixed numpy kernel timed between ops.

    On a shared host the speed can drift by tens of per cent over minutes,
    and that drift moves every time the program takes. The
    kernel, an ``eigvalsh`` over a fixed 12-matrix 24x24 batch and a fixed
    2000-matrix 4x4 batch, never changes, so its time tracks the host
    alone. It runs after an op once at least ``INTERVAL_S`` has passed since
    the last sample, outside every op's timing. ``speed`` is ``REF_S``, the
    kernel's time on the reference host, over the mean sample: above 1 the
    host ran faster than the reference host. The host can switch between a
    fast and a slow state within seconds, so each phase of a run is scaled
    by the speed measured during it.
    """

    REF_S = 6.0e-3
    INTERVAL_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(20250602)
        self._batches = [self._hermitian(rng, 12, 24), self._hermitian(rng, 2000, 4)]
        # Bound now, before a tracer wraps numpy.linalg, so the kernel's
        # calls never show up in the traced counts.
        self._eigvalsh = np.linalg.eigvalsh
        self.samples: list[float] = []
        self._last = time.perf_counter()

    @staticmethod
    def _hermitian(rng, batch: int, n: int):
        G = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
        return G + G.conj().transpose(0, 2, 1)

    def sample(self) -> None:
        t0 = time.perf_counter()
        for H in self._batches:
            self._eigvalsh(H)
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def speed(self, first: int = 0) -> float:
        """The host's speed over the samples from index ``first`` on."""
        return self.REF_S / statistics.fmean(self.samples[first:])

    def record(self) -> dict:
        return {
            "host_speed": self.speed(),
            "host_kernel_ms_mean": 1e3 * statistics.fmean(self.samples),
            "host_kernel_samples": len(self.samples),
        }


def _seconds_to_ready(cmd: list[str]) -> float:
    """Seconds from spawning ``cmd`` until it prints ``ready``.

    The read blocks; a watchdog kills a child that hangs. (Waiting in
    ``select`` instead rounds the times to steps of about 4 ms on Linux.)
    """
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait()
        finally:
            watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])!r} failed with exit code {proc.returncode}")
    return elapsed


def measure_setup(seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, and of bare ones beside them.

    The first list times the package's set-up: spawn, import, first op. The
    second times an interpreter that imports nothing, spawned right after
    each of those. It tracks the host's speed at starting processes, which
    the numpy kernel of ``HostSpeed`` does not.
    """
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(seed)]
    bare = [sys.executable, "-c", "print('ready', flush=True)"]
    setup, reference = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(_seconds_to_ready(probe))
        reference.append(_seconds_to_ready(bare))
    return setup, reference


# --- timed loops ----------------------------------------------------------------


def run_pass(ops, host: HostSpeed, tracer=None):
    """Run ops in order; return (seconds in ops, per-op latencies, outcomes).

    The host kernel runs between ops and is not counted in any of the times.
    """
    latencies = []
    outcomes = []
    for k, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            outcome = op.run() if tracer is None else tracer.run_op(k, op.run)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            outcome = exc
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        host.sample_if_due()
    return sum(latencies), latencies, outcomes


def tail_latency(latencies) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with ten samples beyond it.

    That is the 11th-largest latency. With fewer than 21 samples no
    percentile above the median has ten beyond it, so the largest latency
    (p100) is reported instead.
    """
    s = sorted(latencies)
    n = len(s)
    if n < 21:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def judge_all(wl, ops, outcomes):
    failed = applicable = uncertified = 0
    for op, outcome in zip(ops, outcomes):
        j = wl.judge(op, outcome)
        failed += j.failed
        applicable += j.applicable
        uncertified += j.uncertified
    return failed, applicable, uncertified


def untraced_run(wl, seed: int, seconds: float):
    """Whole rounds back to back, as many as fill ``seconds`` on the reference host.

    Every time metric is scaled to the reference host's speed: the set-up
    time by the bare interpreters' start-up, and each round's op times by
    the host speed measured during that round. The times as measured are
    kept in the record.
    """
    setup, bare = measure_setup(seed)
    setup_speed = BARE_START_REF_S / statistics.median(bare)
    host = HostSpeed()
    ops, outcomes, latencies, scaled, round_times, round_speeds = [], [], [], [], [], []
    rounds = max(2, round(seconds / wl.round_s))
    for r in range(rounds):
        round_ops = wl.build_round(seed, r)
        first = len(host.samples)
        host.sample()
        wall, lat, outs = run_pass(round_ops, host)
        speed = host.speed(first)
        ops += round_ops
        outcomes += outs
        latencies += lat
        scaled += [t * speed for t in lat]
        round_times.append(wall)
        round_speeds.append(speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, applicable, uncertified = judge_all(wl, ops, outcomes)
    n0 = len(ops) // rounds  # every round has the same size
    tail_pct, tail = tail_latency(latencies)
    fail_frac = failed / len(ops)
    uncertified_frac = uncertified / applicable if applicable else 0.0
    measured = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / sum(round_times),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
    }
    metrics = {
        "setup_s": measured["setup_s"] * setup_speed,
        "ops_per_s": len(ops) / sum(t * v for t, v in zip(round_times, round_speeds)),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * tail_latency(scaled)[1],
        "pass_frac": 1.0 - fail_frac,
        "certified_frac": 1.0 - uncertified_frac,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "rounds": rounds,
        "round_seconds": round_times,
        "setup_samples_s": setup,
        "bare_start_samples_s": bare,
        **host.record(),
        "setup_host_speed": setup_speed,
        "round_host_speed": round_speeds,
        "as_measured": measured,
        "fail_frac": fail_frac,
        "uncertified_frac": uncertified_frac,
        "applicable": applicable,
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "round0_digest": digest(wl, ops[:n0], outcomes[:n0]),
    }
    return metrics, record, len(ops), failed


def traced_run(wl, seed: int, seconds: float, out_stem: str, count_names: set):
    """Round 0 untraced then traced, in pairs, while the next pair fits.

    There are always at least two traced passes, so the counts can be checked
    against each other on every workload; the untraced pass of the second
    pair is skipped when the time is already up. Metrics named in
    ``count_names`` are deterministic counts: they are taken from the first
    traced pass and must repeat in every later one. Times are medians over
    the passes.
    """
    host = HostSpeed()
    host.sample()
    ops = wl.build_round(seed, 0)
    untraced, traced, per_pass = [], [], []
    attempted = failed = 0
    digests = set()

    def judge(outs):
        nonlocal attempted, failed
        f, applicable, _ = judge_all(wl, ops, outs)
        attempted += len(ops)
        failed += f
        digests.add(digest(wl, ops, outs))
        return applicable

    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if not traced or elapsed + elapsed / len(traced) <= seconds:
            wall_u, _, outs_u = run_pass(ops, host)
            untraced.append(wall_u)
            judge(outs_u)
        tracer = Tracer()
        with tracer.installed():
            wall_t, _, outs_t = run_pass(ops, host, tracer)
        traced.append(wall_t)
        applicable = judge(outs_t)
        metrics, calls = layer_metrics(tracer.spans, len(ops), len(ops) - applicable)
        silent = [layer for layer in wl.expected_layers if calls.get(layer, 0) == 0]
        if silent:
            raise RuntimeError(f"traced run: no calls recorded for layer(s) {silent} on {wl.name}")
        per_pass.append(metrics)
        if len(per_pass) == 1:
            with gzip.open(OUT / f"{out_stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
                json.dump(tracer.to_obj(), fh)
        elapsed = time.perf_counter() - start
        if len(traced) >= 2 and elapsed + elapsed / len(traced) > seconds:
            break
    counts = [{k: v for k, v in m.items() if k in count_names} for m in per_pass]
    counts_repeat = all(c == counts[0] for c in counts)
    metrics = {
        name: (value if name in count_names else statistics.median(m[name] for m in per_pass))
        for name, value in per_pass[0].items()
    }
    over = statistics.median(traced) - statistics.median(untraced)
    record = {
        "traced_passes": len(traced),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "trace_overhead_s": over,
        "trace_overhead_frac": over / statistics.median(untraced),
        **host.record(),
        "counts_repeat_within_run": counts_repeat,
        "results_same_traced_and_untraced": len(digests) == 1,
        "round0_digest": sorted(digests),
    }
    correct_extra = counts_repeat and len(digests) == 1
    return metrics, record, attempted, failed, correct_extra


# --- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = WORKLOADS[args.workload]
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    # A run never overwrites an earlier one's record, so two runs on the
    # same seed can be compared with compare_counts.py.
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{run_id}"
    env = environment(args.seed)

    if args.trace:
        count_names = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "frac")}
        metrics, record, attempted, failed, extra_ok = traced_run(
            wl, args.seed, args.seconds, stem, count_names
        )
    else:
        metrics, record, attempted, failed = untraced_run(wl, args.seed, args.seconds)
        extra_ok = True
    wanted = [m["name"] for m in group]
    if sorted(wanted) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    correct = failed == 0 and extra_ok

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  BLAS threads 1")
    for key, value in record.items():
        if not isinstance(value, list) or len(value) <= 4:
            print(f"  {key}: {value}")
    for m in group:
        print(f"  {m['name']:<38} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"  ops attempted {attempted}, failed {failed}, correct {correct}")

    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": wl.name, "seconds": args.seconds,
                   "trace": args.trace, "record": record, "metrics": metrics,
                   "attempted": attempted, "failed": failed, "correct": correct}, fh, indent=1)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in group},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
