"""The benchmark's workloads: seeded rounds of ops, and the oracles that judge them.

A round is the unit of work a run repeats. Every round of a workload has the
same composition (the same ids, dimensions and norms, or the same fixtures
and norms), and only the random inputs change from round to round, so a run
that completes more rounds does more of the same mix. Round 0 of a seed is
always the same work; the traced run and the report digest use it.

``round_s`` is a round's time on the reference host (a shared 2-vCPU Xeon,
one BLAS thread). An untraced run does ``round(seconds / round_s)`` rounds,
and at least two, so the work of a run, its sample count and its latency
percentiles do not depend on how fast the host happens to be.

The program only ever sees the generated matrices: the suites pass a seed
to the public ``run_suite`` (one id, one trial), and ``radius_flat`` passes
a dense matrix to ``omega_n``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import mpmath
import numpy as np

import sector_radius as sr

NORMS = tuple(sr.DEFAULT_NORMS)
EPS = float(np.finfo(np.float64).eps)


def _derived_seed(*parts) -> int:
    """A 63-bit seed derived from the workload seed and the op's position."""
    return random.Random(":".join(str(p) for p in parts)).getrandbits(63)


# --- the inequality suites ---------------------------------------------------


@dataclass(frozen=True)
class SuiteOp:
    """One check: generate the inputs, run check_inequality, serialise the report."""

    id: str
    dim: int
    norm: sr.NormSpec
    seed: int

    def run(self):
        report = sr.run_suite([self.id], 1, [self.dim], [self.norm], seed=self.seed)
        report.to_json()
        return report

    @property
    def label(self) -> str:
        return f"{self.id}/n{self.dim}/{self.norm.label}"


@dataclass(frozen=True)
class Judgement:
    failed: bool
    applicable: bool
    uncertified: bool


class SuiteWorkload:
    """All 34 ids at every dimension of ``dims``; the norm rotates with id and n."""

    expected_layers = ("harness", "generator", "radius", "sectorial", "norms", "linalg", "report")

    def __init__(self, name: str, dims: tuple[int, ...], round_s: float):
        self.name = name
        self.dims = dims
        self.round_s = round_s

    def build_round(self, seed: int, r: int) -> list[SuiteOp]:
        ops = []
        for k, ineq in enumerate(sr.all_ids()):
            for j, dim in enumerate(self.dims):
                norm = NORMS[(k + j) % len(NORMS)]
                ops.append(SuiteOp(ineq.value, dim, norm, _derived_seed(self.name, seed, r, k, j)))
        return ops

    def judge(self, op: SuiteOp, outcome) -> Judgement:
        if isinstance(outcome, BaseException):
            return Judgement(failed=True, applicable=True, uncertified=False)
        verdict = outcome.results[0].verdict
        applicable = verdict != "inapplicable"
        return Judgement(
            # Every suite input satisfies its id's hypotheses, so a
            # certified failure is a soundness bug.
            failed=verdict == "certified_fail",
            applicable=applicable,
            uncertified=verdict in ("tolerance_pass", "inconclusive"),
        )

    def digest_item(self, op: SuiteOp, outcome) -> str:
        if isinstance(outcome, BaseException):
            return f"{op.label}:raised:{type(outcome).__name__}"
        obj = outcome.report_obj()
        obj["summary"].pop("wall_time_s")
        return json.dumps(obj, sort_keys=True)


# --- flat angle profiles -----------------------------------------------------


@dataclass(frozen=True)
class FlatOp:
    """One omega_n call at the default check grid and tolerance."""

    fixture: str
    weights: tuple[float, ...]
    norm: sr.NormSpec
    X: np.ndarray

    def run(self):
        ctx = sr.DEFAULT_CONTEXT
        return sr.omega_n(self.norm, self.X, grid=ctx.grid, refine_tol=ctx.refine_tol)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def label(self) -> str:
        return f"{self.fixture}/n{self.n}/{self.norm.label}"


def _schatten_mp(values, p: float):
    mags = [abs(v) for v in values]
    if math.isinf(p):
        return max(mags)
    return mpmath.fsum(m**p for m in mags) ** (mpmath.mpf(1) / p)


def flat_reference(op: FlatOp) -> float:
    """Exact w_N of the fixture, computed at 50 digits.

    Jordan blocks and weighted shifts S satisfy e^{it} S = D S D* with
    D = diag(e^{ikt}), so Re(e^{it} S) is unitarily similar to Re S for
    every t: the profile is flat and w_N(S) = N(Re S). The seeded unitary
    and phase applied to S change neither.
    """
    n = len(op.weights) + 1
    p = op.norm.schatten_p
    with mpmath.workdps(50):
        if op.fixture == "jordan":
            eig = [mpmath.cos(k * mpmath.pi / (n + 1)) for k in range(1, n + 1)]
        else:
            H = mpmath.zeros(n, n)
            for k, w in enumerate(op.weights):
                H[k, k + 1] = H[k + 1, k] = mpmath.mpf(w) / 2
            eig = mpmath.eigsy(H, eigvals_only=True)
        return float(_schatten_mp(eig, p))


def oracle_pad(n: int, ref: float) -> float:
    """Rounding allowance around the certified enclosure.

    Each eigenvalue of an n x n Hermitian H from LAPACK is within about
    n * eps * ||H||_2 of the exact one, and a Schatten norm sums at most n
    of those errors; 4 n^2 eps max(1, w_N) covers both with room to spare.
    """
    return 4.0 * n * n * EPS * max(1.0, ref)


class FlatWorkload:
    """Jordan blocks n = 2..6 and weighted shifts n = 3..6, densified."""

    name = "radius_flat"
    expected_layers = ("radius", "linalg")
    round_s = 8.3
    fixtures = tuple(("jordan", n) for n in range(2, 7)) + tuple(("shift", n) for n in range(3, 7))

    def build_round(self, seed: int, r: int) -> list[FlatOp]:
        ops = []
        for k, (fixture, n) in enumerate(self.fixtures):
            rng = random.Random(_derived_seed(self.name, seed, r, k))
            if fixture == "jordan":
                weights = (1.0,) * (n - 1)
            else:
                weights = tuple(rng.uniform(0.5, 2.0) for _ in range(n - 1))
            S = np.diag(np.asarray(weights, dtype=np.complex128), 1)
            U = sr.random_unitary(sr.GenConfig(n, rng.getrandbits(63)))
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            X = phase * (U @ S @ U.conj().T)
            ops.append(FlatOp(fixture, weights, NORMS[k % len(NORMS)], X))
        return ops

    def judge(self, op: FlatOp, outcome) -> Judgement:
        if isinstance(outcome, BaseException):
            return Judgement(failed=True, applicable=True, uncertified=False)
        ref = flat_reference(op)
        pad = oracle_pad(op.n, ref)
        enclosed = outcome.value - pad <= ref <= outcome.value + outcome.cert_error + pad
        A, B = sr.cartesian_decompose(op.X)
        lipschitz = sr.hermitian_norm(op.norm, A) + sr.hermitian_norm(op.norm, B)
        g_stop = 0.5 * lipschitz * sr.DEFAULT_CONTEXT.refine_tol
        return Judgement(failed=not enclosed, applicable=True, uncertified=outcome.cert_error > g_stop)

    def digest_item(self, op: FlatOp, outcome) -> str:
        if isinstance(outcome, BaseException):
            return f"{op.label}:raised:{type(outcome).__name__}"
        return f"{op.label}:{outcome.value!r}:{outcome.theta_star!r}:{outcome.cert_error!r}"


# Why each workload exists is recorded in BENCHMARK.json and bench/METRICS.md.
WORKLOADS = {
    "suite_small_n": SuiteWorkload("suite_small_n", (2, 3, 4, 5, 6), round_s=3.3),
    "suite_large_n": SuiteWorkload("suite_large_n", (16, 24, 32), round_s=16.0),
    "radius_flat": FlatWorkload(),
}


def digest(wl, ops, outcomes) -> str:
    h = hashlib.sha256()
    for op, outcome in zip(ops, outcomes):
        h.update(wl.digest_item(op, outcome).encode())
        h.update(b"\n")
    return h.hexdigest()
