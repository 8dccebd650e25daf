import hashlib
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sector_radius.generator import GenConfig, random_accretive_dissipative, random_ginibre, random_unitary
from sector_radius.harness import CheckContext
from sector_radius.linalg import LAPACK_BACKWARD, DomainError, cartesian_decompose, frobenius
from sector_radius.norms import (
    FROBENIUS,
    OPERATOR,
    TRACE,
    evaluate_norm,
    hermitian_norm,
    schatten,
    schatten_value,
)
from sector_radius import radius
from sector_radius.radius import (
    _EIG_BATCH,
    _PAD,
    _flag_grading,
    _ladder,
    _open_blocks,
    _profile_values,
    _rotation_bound,
    _rotation_drift,
    numerical_range_boundary,
    omega,
    omega_n,
    radius_profile,
)
from helpers import (
    count_hermitian_eig_matrices,
    count_linalg_matrices,
    mp_frobenius_radius,
    norm_of_svals,
    oracle_omega,
    oracle_resolution_slack,
    profile_at,
    random_complex,
    random_hermitian,
    refined_oracle_omega,
)

ALL_NORMS = (OPERATOR, TRACE, FROBENIUS, schatten(3))
VOLTERRA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
EPS = float(np.finfo(np.float64).eps)


def densified(S: np.ndarray, seed: int) -> np.ndarray:
    """phase * U S U* for a seeded unitary U and unimodular phase."""
    U = random_unitary(GenConfig(S.shape[0], seed))
    phase = np.exp(2j * math.pi * np.random.default_rng(seed).random())
    return phase * (U @ S.astype(complex) @ U.conj().T)


def jordan(n: int) -> np.ndarray:
    """The n x n Jordan block J_n, densified."""
    return densified(np.diag(np.ones(n - 1), 1), 30 + n)


def flat_fixtures():
    """Volterra, Jordan blocks and weighted shifts n = 2..6: flat profiles."""
    yield "volterra", VOLTERRA
    for n in range(2, 7):
        yield f"jordan{n}", jordan(n)
        weights = np.random.default_rng(40 + n).uniform(0.5, 2.0, n - 1)
        yield f"shift{n}", densified(np.diag(weights, 1), 50 + n)


def one_lane(A: np.ndarray, B: np.ndarray, thetas: np.ndarray, p: float) -> np.ndarray:
    """Profile samples of one matrix with Cartesian parts A, B."""
    return _profile_values(A[None], B[None], {0: thetas}, p)[0]


def forbid_subdivision(monkeypatch, limit: int = 256) -> None:
    """Fail fast on an eigvalsh batch beyond ``limit`` matrices.

    Only the subdivision pass evaluates such batches; on a flat profile
    it would go on to rounds of 131072 cells, which at n = 64 need
    gigabytes.
    """
    original = np.linalg.eigvalsh

    def guarded(a, *args, **kwargs):
        batch = int(np.prod(np.shape(a)[:-2], dtype=np.int64))
        assert batch <= limit, f"subdivision started: batch of {batch} matrices"
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", guarded)


class TestRadiusProfile:
    def test_hermitian_profile_is_cosine(self):
        rng = np.random.default_rng(0)
        A = random_hermitian(rng, 4)
        for spec in ALL_NORMS:
            base = hermitian_norm(spec, A)
            for theta in (0.0, 0.4, 1.1, 2.0, 3.0):
                assert radius_profile(spec, A, theta) == pytest.approx(
                    abs(math.cos(theta)) * base, rel=1e-12, abs=1e-12
                )

    def test_nilpotent_frobenius_constant(self):
        for theta in np.linspace(0, math.pi, 13):
            assert radius_profile(FROBENIUS, VOLTERRA, theta) == pytest.approx(
                1 / math.sqrt(2), rel=1e-12
            )

    def test_periodicity(self):
        rng = np.random.default_rng(1)
        X = random_complex(rng, 5)
        for spec in ALL_NORMS:
            for theta in (0.1, 0.9, 2.7):
                a = radius_profile(spec, X, theta)
                b = radius_profile(spec, X, theta + math.pi)
                assert abs(a - b) <= 1e-12 * max(1.0, a)


class TestOmegaN:
    def test_hermitian_equals_norm(self):
        rng = np.random.default_rng(2)
        A = random_hermitian(rng, 5)
        for spec in ALL_NORMS:
            est = omega_n(spec, A)
            base = hermitian_norm(spec, A)
            L = base  # Im part is zero
            assert est.value == pytest.approx(base, abs=1e-10 * max(1, base))
            assert est.cert_error <= 1e-10 * L

    def test_nilpotent_operator_value(self):
        est = omega(VOLTERRA)
        assert est.value == pytest.approx(0.5, abs=1e-8)
        assert oracle_omega(VOLTERRA, math.inf, 2000) <= est.value + est.cert_error

    def test_nilpotent_frobenius_constant_profile(self):
        est = omega_n(FROBENIUS, VOLTERRA)
        assert est.value == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert est.cert_error <= 1e-9

    def test_certified_sandwich_random(self):
        rng = np.random.default_rng(3)
        samples = 20000
        for k in range(12):
            n = int(rng.integers(2, 7))
            X = random_complex(rng, n)
            for spec in ALL_NORMS:
                est = omega_n(spec, X)
                p = spec.schatten_p
                oracle = oracle_omega(X, p, samples)
                assert oracle <= est.value + est.cert_error + 1e-12
                assert est.value <= oracle + oracle_resolution_slack(X, p, samples) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    def test_hermitian_peaks_are_grid_samples(self, spec, n):
        # The profile of a Hermitian A peaks at theta = 0 and that of iA at
        # pi/2.  op, tr and sp:3 return those angles from their closed form
        # (no grid is sampled), and fro reads them off its Gram matrix.
        A = random_hermitian(np.random.default_rng(300 + n), n)
        base = hermitian_norm(spec, A)
        for X, angle in ((A, 0.0), (1j * A, math.pi / 2)):
            est = omega_n(spec, X)
            assert est.theta_star == angle, est
            assert abs(est.value - base) <= 4 * n * EPS * base, est

    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    @pytest.mark.parametrize("spec", (OPERATOR, TRACE, schatten(3)), ids=lambda s: s.label)
    def test_hermitian_lanes_take_the_closed_form(self, spec, n, monkeypatch):
        # Im X == 0 or Re X == 0 exactly: the profile is |cos theta| N(Re X)
        # or |sin theta| N(Im X), so one eigvalsh of the nonzero part gives
        # the radius, with the sample error as its certificate.
        A0 = random_hermitian(np.random.default_rng(310 + n), n)
        calls = count_hermitian_eig_matrices(monkeypatch)
        for X, angle in ((A0, 0.0), (1j * A0, 0.5 * math.pi)):
            A, B = cartesian_decompose(X)
            assert not (B if angle == 0.0 else A).any()
            calls.clear()
            est = omega_n(spec, X)
            assert calls == [1]
            part = hermitian_norm(spec, A if angle == 0.0 else B)
            assert est.value == part and est.theta_star == angle, est
            assert est.cert_error == radius._sample_error(A, B, spec.schatten_p), est

    def test_value_is_profile_sample(self):
        rng = np.random.default_rng(4)
        X = random_complex(rng, 4)
        for spec in ALL_NORMS:
            est = omega_n(spec, X)
            assert radius_profile(spec, X, est.theta_star) == pytest.approx(est.value, rel=1e-12)
            assert 0.0 <= est.theta_star < math.pi

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        X = random_complex(rng, 4)
        for spec in ALL_NORMS:
            base = omega_n(spec, X)
            for c in (2.0, 0.3, 1.5j, -0.7 + 0.2j):
                scaled = omega_n(spec, c * X)
                tol = base.cert_error * abs(c) + scaled.cert_error + 1e-12
                assert abs(scaled.value - abs(c) * base.value) <= tol

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for spec in ALL_NORMS:
            X, Y = random_complex(rng, 4), random_complex(rng, 4)
            ex, ey = omega_n(spec, X), omega_n(spec, Y)
            es = omega_n(spec, X + Y)
            assert es.value <= ex.value + ex.cert_error + ey.value + ey.cert_error + 1e-10

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(7)
        X = random_complex(rng, 5)
        for spec in ALL_NORMS:
            a = omega_n(spec, X)
            b = omega_n(spec, X.conj().T)
            assert abs(a.value - b.value) <= a.cert_error + b.cert_error + 1e-12

    def test_real_part_monotone(self):
        rng = np.random.default_rng(8)
        X = random_complex(rng, 4)
        re = (X + X.conj().T) / 2
        for spec in ALL_NORMS:
            er, ex = omega_n(spec, re), omega_n(spec, X)
            assert er.value <= ex.value + ex.cert_error + er.cert_error + 1e-12

    def test_bounded_by_norm(self):
        rng = np.random.default_rng(9)
        X = random_complex(rng, 5)
        for spec in ALL_NORMS:
            est = omega_n(spec, X)
            assert est.value <= evaluate_norm(spec, X) * (1 + 1e-12)

    def test_weak_unitary_invariance(self):
        rng = np.random.default_rng(10)
        X = random_complex(rng, 4)
        U = random_unitary(GenConfig(4, 11))
        for spec in ALL_NORMS:
            a = omega_n(spec, X)
            b = omega_n(spec, U @ X @ U.conj().T)
            assert abs(a.value - b.value) <= a.cert_error + b.cert_error + 1e-9 * max(1, a.value)

    def test_zero_matrix(self):
        est = omega_n(FROBENIUS, np.zeros((3, 3)))
        assert est.value == 0.0 and est.cert_error == 0.0

    def test_one_by_one(self):
        z = 1.4 - 0.6j
        est = omega_n(OPERATOR, np.array([[z]]))
        assert est.value == pytest.approx(abs(z), abs=1e-12)

    def test_parameter_validation(self):
        # The grid is a multiple of 4 and at least 4: the even sample
        # grid/4 is then pi/2, the row Im X, and every odd sample lies
        # between two coarse cells.
        X = random_complex(np.random.default_rng(12), 3)
        for grid in (4, 8, 12, 32, np.int64(20)):
            assert radius.check_grid(grid) == grid and type(radius.check_grid(grid)) is int
            even, order, forms = radius._stage_forms(int(grid))
            c, s = forms["general"]
            assert (c[grid // 4], s[grid // 4]) == (0.0, -1.0) and even[grid // 4] == pytest.approx(0.5 * math.pi)
            assert sorted(order) == list(range(grid // 2)) and list(order[:2]) == [0, grid // 4]
            # A graded lane's grid-free rows are the grid's samples 0 and pi/2, bit for bit.
            assert [a.tobytes() for a in forms["graded"]] == [c[order[:2]].tobytes(), s[order[:2]].tobytes()]
            omega_n(OPERATOR, X, grid=grid)
        for grid in (0, 2, 6, 10, 30, -4, 4.0, True):
            with pytest.raises(ValueError, match="multiple of 4"):
                omega_n(OPERATOR, X, grid=grid)
        with pytest.raises(ValueError):
            omega_n(OPERATOR, np.eye(2), refine_tol=0.0)

    @pytest.mark.parametrize("spec", [OPERATOR, TRACE, schatten(3)], ids=lambda s: s.label)
    def test_numpy_refine_tol_is_taken_as_a_python_float(self, spec):
        # omega_n runs on the values its checks return: a float32 tolerance
        # gives the bits of its Python float, and g_stop of a lane at 1e60
        # is not taken in float32, where it would overflow to inf and leave
        # the certificate far wider than asked.
        rng = np.random.default_rng(31)
        tol = np.float32(1e-6)
        for n in range(2, 7):
            X = random_complex(rng, n)
            got = omega_n(spec, X, grid=8, refine_tol=tol)
            want = omega_n(spec, X, grid=8, refine_tol=float(tol))
            assert (got.value, got.theta_star, got.cert_error) == (want.value, want.theta_star, want.cert_error)
        X = 1e60 * random_complex(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = omega_n(spec, X, refine_tol=np.float32(1e-10))
        want = omega_n(spec, X, refine_tol=float(np.float32(1e-10)))
        assert (got.value, got.theta_star, got.cert_error) == (want.value, want.theta_star, want.cert_error)
        assert got.cert_error <= 1e-9 * got.value

    @pytest.mark.parametrize(
        "setting, match",
        [pytest.param({"grid": grid}, "multiple of 4", id=str(grid)) for grid in (9, 33, 255, True)]
        + [
            pytest.param({"refine_tol": tol}, "refine_tol must be positive", id=f"refine_tol={tol}")
            for tol in (-1.0, 0.0, math.nan, True)
        ]
        + [
            pytest.param({"m_fold": m}, "m_fold must be an integer >= 2", id=f"m_fold={m}")
            for m in (1, 0, 2.0, 2.5, True)
        ],
    )
    def test_odd_grid_is_refused(self, setting, match):
        # Only an even grid puts an odd sample (2k + 1) h between every two
        # neighbouring coarse cells k and k + 1, around the period.  A
        # context refuses a bad tolerance or m_fold when it is built,
        # before any check runs, and omega_n the settings it takes.  A bool
        # is not a number here, though Python counts it as one.
        if "m_fold" not in setting:
            with pytest.raises(ValueError, match=match):
                omega_n(TRACE, 1j * np.eye(2), **setting)
        if "grid" not in setting:
            with pytest.raises(ValueError, match=match):
                CheckContext(**setting)


class TestEigensolverBudget:
    def test_frobenius_radius_makes_no_eigensolve(self, monkeypatch):
        # The Frobenius radius is the closed form of a 2x2 Gram matrix, so
        # neither one lane nor a batch of every lane kind (zero, Hermitian,
        # skew-Hermitian, general, far-scaled) calls a numpy eigensolver
        # or SVD, and each lane of the batch is its single-lane call.
        rng = np.random.default_rng(31)
        H = random_hermitian(rng, 4)
        X = random_complex(rng, 4)
        lanes = [np.zeros((4, 4), dtype=complex), H, 1j * random_hermitian(rng, 4), X, math.ldexp(1.0, 600) * X]
        alone = [omega_n(FROBENIUS, M) for M in lanes]
        counts = count_linalg_matrices(monkeypatch, ("eigvalsh", "eigh", "svd", "eig"))
        single = omega_n(FROBENIUS, X)
        batch = omega_n(FROBENIUS, *lanes)
        assert counts == []
        assert single == alone[3]
        assert batch == tuple(alone)

    def test_omega_n_eigensolver_calls(self, monkeypatch):
        # The two grid stages (with the norms of the Cartesian parts) and
        # certification stay within 20 batched eigensolver calls per
        # radius.
        calls = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(16)
        for n in range(2, 7):
            for _ in range(3):
                X = random_complex(rng, n)
                for spec in ALL_NORMS:
                    for grid in (256, 1024):
                        calls.clear()
                        omega_n(spec, X, grid=grid)
                        assert len(calls) <= 20, (n, spec.label, grid, len(calls))

    def test_omega_n_matrices_at_default_grid(self, monkeypatch):
        # The two grid stages (half the grid and Im X, then the odd samples
        # beside open coarse cells) and certification (the fit rounds and
        # ladders of op, tr and sp:3; fro's one sample) together average at
        # most 35 Hermitian eigensolver matrices per radius (32.6 measured).
        counts = count_hermitian_eig_matrices(monkeypatch)
        per_call = []
        rng = np.random.default_rng(17)
        for n in range(2, 7):
            for _ in range(3):
                X = random_complex(rng, n)
                for spec in ALL_NORMS:
                    counts.clear()
                    omega_n(spec, X)
                    per_call.append(sum(counts))
        assert np.mean(per_call) <= 35, np.mean(per_call)

    def test_no_eigh_and_no_solve(self, monkeypatch):
        # Every norm certifies from eigvalsh samples alone: no eigenvectors
        # and no linear solves, whatever the size.
        calls = []
        for name in ("eigh", "solve"):
            original = getattr(np.linalg, name)

            def recorded(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        rng = np.random.default_rng(21)
        for n in (2, 3, 4, 5, 6, 16, 32):
            for _ in range(6):
                X = random_complex(rng, n)
                for spec in ALL_NORMS:
                    omega_n(spec, X)
        assert calls == []

    @pytest.mark.parametrize("spec", (OPERATOR, TRACE, schatten(3)), ids=lambda s: s.label)
    def test_fit_and_ladder_budget(self, spec, monkeypatch):
        # A single op, tr or sp:3 radius makes 5 eigvalsh calls in the median
        # at every n: the two grid stages, two fit rounds and the ladders.
        counts = count_hermitian_eig_matrices(monkeypatch)
        rng = np.random.default_rng(22)
        ceiling = {OPERATOR: 55, TRACE: 80, schatten(3): 88}[spec]
        for n in (2, 3, 4, 5, 6, 16, 32):
            calls, matrices = [], []
            for _ in range(8):
                counts.clear()
                omega_n(spec, random_complex(rng, n))
                calls.append(len(counts))
                matrices.append(sum(counts))
            assert np.median(calls) <= 5, (n, calls)
            assert np.mean(matrices) <= ceiling, (n, np.mean(matrices))

    @pytest.mark.parametrize("grid", [4, 8, 32, 256])
    @pytest.mark.parametrize("spec", (OPERATOR, TRACE, schatten(3)), ids=lambda s: s.label)
    def test_grid_stages_of_a_general_lane(self, spec, grid, monkeypatch):
        # Stage 1 evaluates the grid/2 even samples, the one at pi/2 being
        # Im X; stage 2 only the odd samples (2k +- 1) h beside coarse cells
        # that fail their test (f(2kh) + sample error)/cos(h + pad) <=
        # best + g_stop.
        calls = count_hermitian_eig_matrices(monkeypatch)
        stage2 = []
        original = radius._profile_values

        def recorded(A, B, thetas, p, best=None):
            stage2.append(thetas[0])
            return original(A, B, thetas, p, best)

        monkeypatch.setattr(radius, "_profile_values", recorded)
        h = math.pi / grid
        rng = np.random.default_rng(28)
        skipped = 0
        for n in (2, 3, 6, 16):
            X = random_complex(rng, n)
            A, B = cartesian_decompose(X)
            p = spec.schatten_p
            row = original(A[None], B[None], {0: np.arange(0, grid, 2) * h}, p)[0]
            row[grid // 4] = hermitian_norm(spec, B)
            g_stop = 0.5 * (row[0] + row[grid // 4]) * 1e-10
            slack = radius._sample_error(A, B, p)
            k = np.flatnonzero((row + slack) / math.cos(h + _PAD) > row.max() + g_stop)
            expected = np.unique(np.concatenate([2 * k - 1, 2 * k + 1]) % grid) * h
            calls.clear()
            stage2.clear()
            omega_n(spec, X, grid=grid)
            assert calls[0] == grid // 2, calls
            assert np.array_equal(stage2[0], expected), (n, stage2[0] / h, expected / h)
            assert calls[1] == len(expected)
            skipped += grid // 2 - len(expected)
        # On 4 cells both odd samples border every coarse cell.
        assert skipped > 0 or grid == 4

    def test_flat_profiles_need_no_subdivision(self, monkeypatch):
        # The rotation bound (every norm) and the closed form (fro) certify
        # flat profiles directly; the subdivision pass needs about 262k
        # matrices here.
        counts = count_hermitian_eig_matrices(monkeypatch)
        refine_tol = 1e-10
        for name, X in flat_fixtures():
            A, B = cartesian_decompose(X)
            for spec in ALL_NORMS:
                counts.clear()
                est = omega_n(spec, X, refine_tol=refine_tol)
                used = sum(counts)
                L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
                assert used <= 150, (name, spec.label, used)
                assert est.cert_error <= 0.5 * L * refine_tol, (name, spec.label, est.cert_error)

    @pytest.mark.parametrize("n, ceiling", [(16, 2500), (32, 10000)])
    def test_near_circular_budget(self, n, ceiling, monkeypatch):
        # J_n + 0.1 e_1 e_n^T is nilpotent but not circular, so its profile
        # is nearly flat and neither the rotation bound nor the ladders close
        # it: it subdivides.  Cells pruned on their covering term keep it
        # within a few thousand matrices per radius (at most 1814 at n = 16
        # and 7335 at n = 32).
        X = lockstep_batch(n)[-1]
        A, B = cartesian_decompose(X)
        counts = count_hermitian_eig_matrices(monkeypatch)
        for spec in (OPERATOR, TRACE, schatten(3)):
            counts.clear()
            est = omega_n(spec, X)
            assert sum(counts) <= ceiling, (spec.label, sum(counts))
            L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
            assert est.cert_error <= 0.5 * L * 1e-10, (spec.label, est.cert_error)

    def test_profile_values_are_chunked(self, monkeypatch):
        # Batches stay within _EIG_BATCH matrices, and chunking leaves
        # every value bit-for-bit as one unchunked eigvalsh call gives it,
        # also where a chunk spans two lanes.  A lane with no angles gets
        # an empty array, and a call with no angles solves nothing.
        rng = np.random.default_rng(18)
        parts = [cartesian_decompose(random_complex(rng, 5)) for _ in range(3)]
        A = np.stack([a for a, _ in parts])
        B = np.stack([b for _, b in parts])
        lane = np.repeat([0, 2], [6000, 4000])
        thetas = rng.uniform(0.0, math.pi, 10000)
        batch = {0: thetas[:6000], 1: np.empty(0), 2: thetas[6000:]}
        for spec in ALL_NORMS:
            p = spec.schatten_p
            H = np.cos(thetas)[:, None, None] * A[lane] - np.sin(thetas)[:, None, None] * B[lane]
            whole = schatten_value(np.abs(np.linalg.eigvalsh(H)), p)
            with monkeypatch.context() as m:
                counts = count_hermitian_eig_matrices(m)
                chunked = _profile_values(A, B, batch, p)
                assert max(counts) <= _EIG_BATCH and sum(counts) == len(thetas)
                assert list(chunked) == [0, 1, 2] and chunked[1].shape == (0,)
                assert np.array_equal(np.concatenate([chunked[0], chunked[2]]), whole), spec.label
                counts.clear()
                assert _profile_values(A, B, {}, p) == {}
                [(l, empty)] = _profile_values(A, B, {1: np.empty(0)}, p).items()
                assert l == 1 and empty.shape == (0,) and counts == []


def lockstep_batch(n: int) -> list[np.ndarray]:
    """One lane per path: random (subdivides in tr and sp:3), Hermitian,
    zero (L = 0), Volterra at n = 2, a Jordan block (rotation bound) and
    J_n + 0.1 e_1 e_n^T (nilpotent, not circular for n > 2)."""
    rng = np.random.default_rng(200 + n)
    J = np.diag(np.ones(n - 1), 1).astype(complex)
    J[0, -1] += 0.1
    lanes = [random_complex(rng, n), random_hermitian(rng, n), np.zeros((n, n), dtype=complex)]
    if n == 2:
        lanes.append(VOLTERRA)
    return lanes + [jordan(n), densified(J, 210 + n)]


class TestLockstep:
    @staticmethod
    def record_subdivided_lanes(monkeypatch) -> list[int]:
        lanes = []
        original = radius._subdivide

        def recorded(A, B, p, cells, *args):
            lanes.extend(cells)
            return original(A, B, p, cells, *args)

        monkeypatch.setattr(radius, "_subdivide", recorded)
        return lanes

    # cr1 caps each side of a ladder at one stretched cell, so the random
    # lanes of every norm but fro go on to subdivision rounds; a budget of
    # 64 cells on top stops lanes at different rounds (alone it stops every
    # lane before its first round, since a lane's ladders hold more cells).
    @pytest.mark.parametrize(
        "knob",
        [{}, {"_MAX_RUNGS": 1}, {"_MAX_RUNGS": 1, "_MAX_CELLS": 64}],
        ids=["default", "cr1", "budget"],
    )
    @pytest.mark.parametrize("n", [2, 3, 6, 16])
    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    def test_lanes_equal_single_calls_bitwise(self, spec, n, knob, monkeypatch):
        for name, value in knob.items():
            monkeypatch.setattr(radius, name, value)
        Xs = lockstep_batch(n)
        subdivided = self.record_subdivided_lanes(monkeypatch)
        batch = omega_n(spec, *Xs)
        assert isinstance(batch, tuple) and len(batch) == len(Xs)
        if spec is not FROBENIUS:
            assert subdivided, "no lane subdivided"
        for i, X in enumerate(Xs):
            single = omega_n(spec, X)
            got = (batch[i].value, batch[i].theta_star, batch[i].cert_error)
            assert got == (single.value, single.theta_star, single.cert_error), (i, batch[i], single)

    # The rungs run_suite climbs first: there the first stage closes every
    # lane (no subdivision), the graded lanes of a single call take the
    # all-graded broadcast and the batch takes _combined_norms.
    @pytest.mark.parametrize("grid, refine_tol", [(4, 1.0), (8, 0.2)], ids=["4-1.0", "8-0.2"])
    @pytest.mark.parametrize("n", [2, 3, 6, 16])
    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    def test_lanes_equal_single_calls_bitwise_at_suite_rungs(self, spec, n, grid, refine_tol):
        Xs = lockstep_batch(n)
        batch = omega_n(spec, *Xs, grid=grid, refine_tol=refine_tol)
        assert isinstance(batch, tuple) and len(batch) == len(Xs)
        for i, X in enumerate(Xs):
            single = omega_n(spec, X, grid=grid, refine_tol=refine_tol)
            got = (batch[i].value, batch[i].theta_star, batch[i].cert_error)
            assert got == (single.value, single.theta_star, single.cert_error), (i, batch[i], single)

    def test_one_matrix_gives_an_estimate(self):
        est = omega_n(OPERATOR, np.eye(2))
        assert isinstance(est, radius.RadiusEstimate)

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ValueError):
            omega_n(TRACE, np.eye(2), np.eye(3))

    @pytest.mark.parametrize("second, blocks", [(0.9, 1), (0.999, 2)])
    def test_each_open_sampled_peak_gets_a_ladder(self, second, blocks, monkeypatch):
        # A normal X with eigenvalues e^{-0.3i} and second * e^{-(0.3 + pi/2)i}
        # has f(theta) = max(|cos(theta - 0.3)|, second * |cos(theta - 0.3 - pi/2)|):
        # two separated local maxima.  At 0.9 the lower peak's grid cells
        # already pass (0.9 / cos(h/2) < 1); at 0.999 both peaks stay open
        # and each gets its own ladder.  Neither lane subdivides: 5 eigvalsh
        # calls in all.
        U = random_unitary(GenConfig(2, 5))
        X = U @ np.diag([np.exp(-0.3j), second * np.exp(-(0.3 + 0.5 * math.pi) * 1j)]) @ U.conj().T
        peaks = []
        original = radius._ladder

        def recorded(peak, *args):
            peaks.append(peak)
            return original(peak, *args)

        monkeypatch.setattr(radius, "_ladder", recorded)
        calls = count_hermitian_eig_matrices(monkeypatch)
        est = omega_n(OPERATOR, X)
        assert len(calls) == 5, calls
        assert len(peaks) == blocks, peaks
        for peak, exact in zip(peaks, (0.3, 0.3 + 0.5 * math.pi)):
            assert peak == pytest.approx(exact, abs=1e-8)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        A, B = cartesian_decompose(X)
        L = hermitian_norm(OPERATOR, A) + hermitian_norm(OPERATOR, B)
        assert est.cert_error <= 0.5 * L * 1e-10


def tight_pin_cases():
    """(spec, matrices, refine_tol) of every omega_n call that TestTightPin hashes.

    Random lanes one at a time at n = 2, 3, 5 and 16, tight and coarse; a
    4-lane random batch; lockstep_batch(4) and (16); and the flat fixtures.
    """
    for n in (2, 3, 5, 16):
        rng = np.random.default_rng(400 + n)
        Xs = [random_complex(rng, n) for _ in range(6)]
        for spec in ALL_NORMS:
            for refine_tol in (1e-10, 1e-2):
                for X in Xs:
                    yield spec, [X], refine_tol
    rng = np.random.default_rng(420)
    batch = [random_complex(rng, 4) for _ in range(4)]
    for spec in ALL_NORMS:
        yield spec, batch, 1e-10
        yield spec, lockstep_batch(4), 1e-10
        yield spec, lockstep_batch(16), 1e-10
        for _, X in flat_fixtures():
            yield spec, [X], 1e-10


class TestTightPin:
    def test_tight_radii_bits_are_pinned(self, monkeypatch):
        # The suite's report pin sees almost only coarse radii.  This pins
        # every bit of (value, theta_star, cert_error) on the tight path
        # (odd samples, fits, ladders, subdivision, rotation bound) and the
        # eigvalsh calls and matrices it takes.  The cases include a first
        # fit round that clips, lanes that subdivide and lanes that close by
        # rotation.
        counts = count_hermitian_eig_matrices(monkeypatch)
        reached = Counter()
        for name in ("_fit_round", "_rotation_bound", "_subdivide"):
            original = getattr(radius, name)

            def recorded(*args, _name=name, _original=original):
                before = len(counts)
                out = _original(*args)
                if _name == "_fit_round" and args[4] != radius._FIT_SPACING:
                    reached["clipped"] += any(fit[3] for lane in out.values() for fit in lane)
                reached[_name] += len(counts) > before if _name == "_subdivide" else 1
                return out

            monkeypatch.setattr(radius, name, recorded)
        digest = hashlib.sha256()
        for spec, Xs, refine_tol in tight_pin_cases():
            ests = omega_n(spec, *Xs, refine_tol=refine_tol)
            for est in ests if isinstance(ests, tuple) else (ests,):
                digest.update(repr((est.value, est.theta_star, est.cert_error)).encode())
        assert reached["clipped"] and reached["_rotation_bound"] and reached["_subdivide"], reached
        assert (len(counts), sum(counts)) == (522, 7960)
        assert digest.hexdigest() == "59787e2c02018911702857a4ad5050d86a96f97664526f4bfca401677cba7acb"


class TestFarScale:
    def test_non_finite_entries_are_refused(self):
        # The range test's reduction is also the finiteness test: NaN and
        # infinite parts are refused by name, in any lane.
        X = random_ginibre(GenConfig(3, 500))
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, -math.inf)):
            Y = X.copy()
            Y[1, 2] = bad
            with pytest.raises(DomainError, match="^matrix contains non-finite entries"):
                evaluate_norm(OPERATOR, Y)
            for spec in ALL_NORMS:
                with pytest.raises(DomainError, match="^matrix contains non-finite entries"):
                    omega_n(spec, Y)
                with pytest.raises(DomainError, match="^matrix 1 contains non-finite entries"):
                    omega_n(spec, X, Y)

    @pytest.mark.parametrize("k", [-700, -560, 520, 600])
    def test_radius_and_norm_survive_a_power_of_two(self, k):
        # At these scales the Frobenius Gram entries and the norms' squares
        # underflow or overflow unless the matrix is scaled first.  The
        # interval of 2^k X, divided by 2^k, overlaps that of X; a lane in
        # range keeps its bits beside a scaled one; the norm scales exactly.
        for s in range(5):
            X = random_ginibre(GenConfig(3, 500 + s))
            Y = math.ldexp(1.0, k) * X
            for spec in ALL_NORMS:
                alone = omega_n(spec, X)
                near, far = omega_n(spec, X, Y)
                assert near == alone
                lo, hi = math.ldexp(far.value, -k), math.ldexp(far.value + far.cert_error, -k)
                assert lo <= alone.value + alone.cert_error and alone.value <= hi, (spec.label, s, far)
                assert evaluate_norm(spec, Y) == pytest.approx(math.ldexp(evaluate_norm(spec, X), k), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [-560, 520])
    def test_hermitian_norm_and_profile_survive_a_power_of_two(self, k):
        # Unscaled, the sums of squares of a Frobenius value underflow to 0
        # at 2^-560 and overflow to inf at 2^520.  Both functions scale as
        # omega_n and evaluate_norm do, so 2^k times a value is the value
        # at 2^k times the matrix.
        for s in range(5):
            H = cartesian_decompose(random_ginibre(GenConfig(3, 510 + s)))[0]
            X = random_ginibre(GenConfig(3, 520 + s))
            Hk, Xk = math.ldexp(1.0, k) * H, math.ldexp(1.0, k) * X
            for spec in ALL_NORMS:
                value = hermitian_norm(spec, Hk)
                assert value == pytest.approx(evaluate_norm(spec, Hk), rel=1e-12, abs=0.0), (spec.label, s)
                assert value == pytest.approx(math.ldexp(hermitian_norm(spec, H), k), rel=1e-14, abs=0.0), (spec.label, s)
                for theta in (0.0, 0.3, 2.0):
                    want = math.ldexp(radius_profile(spec, X, theta), k)
                    assert radius_profile(spec, Xk, theta) == pytest.approx(want, rel=1e-14, abs=0.0), (spec.label, s)

    def test_subnormal_radius_rounds_its_certificate_up(self):
        # Half-integer entries times 2^-1060 are exact subnormals, and so is
        # each radius scaled back: its upper end must still reach the
        # radius of the unscaled matrix.
        rng = np.random.default_rng(3)
        for t in range(20):
            X = (rng.integers(-8, 9, (3, 3)) + 1j * rng.integers(-8, 9, (3, 3))) / 2
            for spec in ALL_NORMS:
                tiny = omega_n(spec, math.ldexp(1.0, -1060) * X)
                assert math.ldexp(tiny.value + tiny.cert_error, 1060) >= omega_n(spec, X).value, (t, spec.label)


def caller_input(name: str) -> tuple:
    """(input, owner) of an input whose data the radius and norm functions must leave as they are.

    "far" is 2^300 J_4 and "tiny" a weighted shift scaled by 2^-1000, both
    scaled before use; "view" is a strided view, whose owner is the array
    it views; "list" is a Python list.  Every other owner is None.
    """
    if name == "far":
        return 2.0**300 * jordan(4), None
    if name == "tiny":
        weights = np.random.default_rng(44).uniform(0.5, 2.0, 3)
        return 2.0**-1000 * densified(np.diag(weights, 1), 54), None
    if name == "view":
        base = random_complex(np.random.default_rng(45), 8)
        return base[::2, 1::2], base
    return jordan(3).tolist(), None


class TestCallerData:
    @staticmethod
    def snapshot(X, owner) -> str:
        return repr(X) if isinstance(X, list) else (X if owner is None else owner).tobytes().hex()

    @staticmethod
    def bits(result) -> list[str]:
        if isinstance(result, radius.RadiusEstimate):
            result = (result.value, result.theta_star, result.cert_error)
        return [float(v).hex() for v in np.atleast_1d(result)]

    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    @pytest.mark.parametrize("name", ["far", "tiny", "view", "list"])
    def test_input_is_left_as_is_and_results_match_a_contiguous_copy(self, spec, name):
        X, owner = caller_input(name)
        calls = {
            "omega_n": lambda M: omega_n(spec, M),
            "radius_profile": lambda M: radius_profile(spec, M, 0.7),
            "evaluate_norm": lambda M: evaluate_norm(spec, M),
            "hermitian_norm": lambda M: hermitian_norm(spec, M),
        }
        before = self.snapshot(X, owner)
        contiguous = np.array(X, dtype=np.complex128)
        for call, f in calls.items():
            got = self.bits(f(X))
            assert self.snapshot(X, owner) == before, (name, call)
            assert got == self.bits(f(contiguous)), (name, call)


def grading_inputs():
    """Orthogonal sums of weighted shifts, densified, at n = 2..6, 16, 32 and 64.

    The flat fixtures, J_2 + J_3, a shift with complex weights, J_3 + 0,
    and Jordan blocks and weighted shifts of the larger sizes.
    """
    yield from flat_fixtures()
    blocks = np.zeros((5, 5), dtype=complex)
    blocks[0, 1] = blocks[2, 3] = blocks[3, 4] = 1.0
    yield "jordan2+jordan3", densified(blocks, 60)
    rng = np.random.default_rng(61)
    weights = rng.uniform(0.5, 2.0, 5) * np.exp(2j * math.pi * rng.random(5))
    yield "complex_shift6", densified(np.diag(weights, 1), 62)
    yield "jordan3+0", densified(np.pad(np.diag(np.ones(2), 1), ((0, 1), (0, 1))), 63)
    for n in (16, 32, 64):
        yield f"jordan{n}", jordan(n)
        weights = np.random.default_rng(40 + n).uniform(0.5, 2.0, n - 1)
        yield f"shift{n}", densified(np.diag(weights, 1), 50 + n)


def radius_flat_inputs(seeds=range(1, 4), rounds=range(1)):
    """The densified Jordan blocks and weighted shifts of the radius_flat benchmark workload."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    flat = workloads.WORKLOADS["radius_flat"]
    for seed in seeds:
        for r in rounds:
            for op in flat.build_round(seed, r):
                yield f"{op.label}/seed{seed}/round{r}", op.X


def circular_inputs():
    """grading_inputs() and round 0 of radius_flat at seeds 1-3."""
    yield from grading_inputs()
    yield from radius_flat_inputs()


def rotation_inputs(seed: int):
    """A random matrix and the non-circular nilpotent J_3 + 0.1 e_1 e_3^T."""
    yield "random", random_complex(np.random.default_rng(seed), 4)
    J = np.diag(np.ones(2), 1).astype(complex)
    J[0, 2] = 0.1
    yield "non_circular", densified(J, seed)


class TestRotationCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        k_scale=st.floats(0.0, 4.0),
        grid=st.integers(1, 40),
        theta0=st.floats(0.0, math.pi),
    )
    def test_bound_holds_for_any_hermitian_k(self, n, seed, k_scale, grid, theta0):
        # sup f <= max_j f(theta_j) + (h/2) N(KX - XK + X) for every Hermitian
        # K and every uniform grid theta_j = theta0 + j h, h = pi / grid.
        rng = np.random.default_rng(seed)
        X = random_complex(rng, n)
        K = random_hermitian(rng, n, k_scale)
        A, B = cartesian_decompose(X)
        h = math.pi / grid
        thetas = theta0 + h * np.arange(grid)
        for spec in (TRACE, schatten(3), OPERATOR):
            p = spec.schatten_p
            value = float(one_lane(A, B, thetas, p).max())
            bound = _rotation_bound(value, radius._sample_error(A, B, p), h, _rotation_drift(X, K, p, frobenius(X)))
            pad = 16 * n ** (1.0 / p) * n * EPS * float(np.linalg.norm(X))
            assert bound >= oracle_omega(X, p, 2000) - pad, spec.label

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_single_sample_at_a_zero_of_the_profile(self, n):
        # X = diag(1, 0, ...) has f(theta) = |cos theta|; its one sample at
        # pi/2 reads 0, so with K = 0 the bound must add all of (pi/2) N(X).
        X = np.zeros((n, n), dtype=complex)
        X[0, 0] = 1.0
        A, B = cartesian_decompose(X)
        K = np.zeros((n, n), dtype=complex)
        for spec in (schatten(3), OPERATOR):
            p = spec.schatten_p
            value = radius_profile(spec, X, 0.5 * math.pi)
            assert value <= 1e-15
            slack = radius._sample_error(A, B, p)
            assert _rotation_bound(value, slack, math.pi, _rotation_drift(X, K, p, frobenius(X))) >= 1.0, spec.label

    def test_shift_grading_is_exact(self):
        # K X - X K = -X on every orthogonal sum of weighted shifts, up to
        # the rounding of one SVD and the doubling's matrix products.
        for name, X in grading_inputs():
            n = X.shape[0]
            K = _flag_grading(X, frobenius(X))
            assert K is not None, name
            assert np.array_equal(K, K.conj().T)
            residual = np.linalg.norm(K @ X - X @ K + X)
            assert residual <= 4 * n * n * EPS * np.linalg.norm(X), (name, residual)
        Y = np.eye(3) + jordan(3)
        assert _flag_grading(Y, frobenius(Y)) is None

    def test_grading_takes_one_svd(self, monkeypatch):
        counts = count_linalg_matrices(monkeypatch, ("svd",))
        for name, X in flat_fixtures():
            before = len(counts)
            assert _flag_grading(X, frobenius(X)) is not None, name
            assert counts[before:] == [1], name

    def test_no_certificate_without_rotation_symmetry(self):
        refine_tol = 1e-10
        for name, X in rotation_inputs(19):
            A, B = cartesian_decompose(X)
            K = _flag_grading(X, frobenius(X))
            if name == "random":
                assert K is None
            for spec in (TRACE, schatten(3), OPERATOR):
                p = spec.schatten_p
                g_stop = 0.5 * (hermitian_norm(spec, A) + hermitian_norm(spec, B)) * refine_tol
                if K is not None:
                    h = math.pi / radius.DEFAULT_GRID
                    f0 = float(one_lane(A, B, np.arange(radius.DEFAULT_GRID) * h, p).max())
                    drift = _rotation_drift(X, K, p, frobenius(X))
                    bound = _rotation_bound(f0, radius._sample_error(A, B, p), h, drift)
                    assert bound - f0 > g_stop, (name, spec.label)
                est = omega_n(spec, X, refine_tol=refine_tol)
                assert oracle_omega(X, p, 20000) <= est.value + est.cert_error + 1e-12, (name, spec.label)

    def test_trace_free_screen_admits_every_circular_fixture(self):
        # A circular X is nilpotent, so tr X = 0, and a lane is graded when
        # |tr X| <= LAPACK_BACKWARD n^2 eps ||X||_F.  Densified, the worst
        # fixture here reads 0.45 n^2 eps ||X||_F (a 2 x 2 Jordan block of
        # radius_flat), nine times inside the screen.
        worst = 0.0
        inputs = list(grading_inputs()) + list(radius_flat_inputs(range(1, 11), range(3)))
        for name, X in inputs:
            n = X.shape[0]
            ratio = abs(np.trace(X)) / (n * n * EPS * np.linalg.norm(X))
            assert ratio <= LAPACK_BACKWARD, (name, ratio)
            worst = max(worst, ratio)
        assert worst <= 0.5, worst

    def test_circular_lanes_close_on_one_sample(self, monkeypatch):
        # A circular lane takes one SVD and one eigvalsh of theta = 0 and
        # pi/2 (Im X), and the rotation bound on the single sample theta = 0
        # (step pi) closes it, with no covering cell.  At n = 64 the
        # operator norm's one-sample bound misses g_stop by about 2x, so
        # those lanes take the other grid/2 - 2 even samples in one more
        # eigvalsh and close on step 2h.
        def refuse(*args):
            raise AssertionError("covering cells built")

        monkeypatch.setattr(radius, "_covering_cells", refuse)
        eig = count_hermitian_eig_matrices(monkeypatch)
        svd = count_linalg_matrices(monkeypatch, ("svd",))
        for name, X in circular_inputs():
            n = X.shape[0]
            A, B = cartesian_decompose(X)
            for spec in (OPERATOR, TRACE, schatten(3)):
                L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
                at_zero = radius_profile(spec, X, 0.0)
                eig.clear()
                svd.clear()
                est = omega_n(spec, X)
                assert est.cert_error <= 0.5 * L * radius.DEFAULT_REFINE_TOL, (name, spec.label, est)
                assert svd == [1], (name, spec.label, svd)
                if n == 64 and spec is OPERATOR:
                    assert eig == [2, radius.DEFAULT_GRID // 2 - 2], (name, spec.label, eig)
                else:
                    assert eig == [2], (name, spec.label, eig)
                    assert (est.value, est.theta_star) == (at_zero, 0.0), (name, spec.label)

    @pytest.mark.parametrize("grid", [4, 8, 32])
    def test_graded_lane_left_open_keeps_grid_order(self, grid, monkeypatch):
        # A graded lane evaluates theta = 0 and pi/2 first and its other
        # even samples after; left open by the rotation bound, it must reach
        # the covering cells with its samples in grid order, bit for bit as
        # a lane that was never graded.  The inputs are singular and
        # trace-free, so they are graded; the bound is made to admit them
        # and then never close.
        def admit_only(value, slack, h, drift):
            return slack if value == 0.0 else math.inf

        rng = np.random.default_rng(60)
        for n in (3, 5):
            X = random_complex(rng, n)
            X[:, -1] = 0.0
            X[0, 0] = -X.diagonal()[1:].sum()
            for spec in (OPERATOR, TRACE, schatten(3)):
                with monkeypatch.context() as m:
                    m.setattr(radius, "_flag_grading", lambda X, fro: None)
                    plain = omega_n(spec, X, grid=grid)
                with monkeypatch.context() as m:
                    graded = []
                    flag = radius._flag_grading
                    m.setattr(radius, "_flag_grading", lambda X, fro: graded.append(n) or flag(X, fro))
                    m.setattr(radius, "_rotation_bound", admit_only)
                    est = omega_n(spec, X, grid=grid)
                assert graded == [n], (n, spec.label)
                assert est == plain, (n, spec.label, grid)

    def test_random_inputs_never_reach_the_rotation_path(self, monkeypatch):
        # Only a lane whose trace is within rounding of 0 asks for the
        # grading.
        def refuse(*args):
            raise AssertionError("rotation path reached")

        monkeypatch.setattr(radius, "_flag_grading", refuse)
        rng = np.random.default_rng(20)
        for n in range(1, 7):
            for X in (random_complex(rng, n), random_hermitian(rng, n)):
                for spec in ALL_NORMS:
                    omega_n(spec, X)


class TestCertificateOracles:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), z_scale=st.floats(0.0, 4.0))
    def test_dilation_bounds_radius_for_any_hermitian_z(self, n, seed, z_scale):
        # Re(e^{i theta} X) is a compression of [[-Z, X], [X*, Z]] for
        # every Hermitian Z, so its top eigenvalue bounds w(X) from above.
        rng = np.random.default_rng(seed)
        X = random_complex(rng, n)
        Z = random_hermitian(rng, n, z_scale)
        M = np.block([[-Z, X], [X.conj().T, Z]])
        top = float(np.linalg.eigvalsh(M)[-1])
        pad = 16 * n * EPS * float(np.linalg.norm(M))
        assert top >= oracle_omega(X, math.inf, 2000) - pad

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_jordan_block_radius(self, n, monkeypatch):
        # On a flat profile w_N(J_n) = N(Re J_n), whose eigenvalues are
        # cos(k pi / (n + 1)), k = 1..n.
        forbid_subdivision(monkeypatch)
        X = densified(np.diag(np.ones(n - 1), 1), 70 + n)
        A, B = cartesian_decompose(X)
        eigs = np.abs(np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
        refine_tol = 1e-10
        for spec in (OPERATOR, TRACE, schatten(3)):
            est = omega_n(spec, X, refine_tol=refine_tol)
            exact = float(norm_of_svals(eigs, spec.schatten_p))
            pad = 4 * n * n * EPS * max(1.0, exact)
            assert est.value - pad <= exact <= est.value + est.cert_error + pad, spec.label
            L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
            assert est.cert_error <= 0.5 * L * refine_tol, (spec.label, est.cert_error)

    def test_wide_weighted_shift_certifies_by_rotation(self, monkeypatch):
        # A 64 x 64 weighted shift and the Jordan block J_64 close on the
        # rotation bound in every norm: no cell is built.  A bound using
        # the whole period, pi/2 instead of h/2, misses g_stop on the shift
        # and the operator norm falls through to subdivision.
        def refuse(*args):
            raise AssertionError("covering cells built")

        forbid_subdivision(monkeypatch)
        monkeypatch.setattr(radius, "_covering_cells", refuse)
        weights = np.random.default_rng(64).uniform(0.5, 2.0, 63)
        refine_tol = 1e-10
        for name, X in (("shift64", densified(np.diag(weights, 1), 71)), ("jordan64", jordan(64))):
            A, B = cartesian_decompose(X)
            for spec in ALL_NORMS:
                est = omega_n(spec, X, refine_tol=refine_tol)
                L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
                assert est.cert_error <= 0.5 * L * refine_tol, (name, spec.label, est.cert_error)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_trace_radius_of_accretive_dissipative_is_the_start_bound(self, n):
        # With Re X and Im X positive semidefinite, the trace profile on
        # (pi/2, pi) is |cos| tr Re X + |sin| tr Im X, so its supremum is
        # hypot(N(Re X), N(Im X)): the start bound is exact, and every
        # covering term lies above it.
        for seed in range(8):
            X = random_accretive_dissipative(GenConfig(n, 500 + seed))
            A, B = cartesian_decompose(X)
            est = omega_n(TRACE, X)
            start = math.hypot(hermitian_norm(TRACE, A), hermitian_norm(TRACE, B))
            assert est.value + est.cert_error == start + radius._sample_error(A, B, 1.0), (n, seed, est)

    @staticmethod
    def mp_profile(X: np.ndarray, p: float, theta: float, dps: int = 30) -> float:
        """N(Re(e^{i theta} X)) in mpmath at ``dps`` digits, from the doubles X and theta exactly."""
        import mpmath

        with mpmath.workdps(dps):
            n = X.shape[0]
            z = mpmath.expjpi(mpmath.mpf(theta) / mpmath.pi)
            Y = z * mpmath.matrix([[mpmath.mpc(complex(X[i, j])) for j in range(n)] for i in range(n)])
            H = (Y + Y.transpose_conj()) / 2
            lam = [abs(v) for v in mpmath.eighe(H, eigvals_only=True)]
            if math.isinf(p):
                return float(max(lam))
            return float(mpmath.fsum(v**p for v in lam) ** (mpmath.mpf(1) / p))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
    def test_grid_of_four_encloses_the_oracles(self, n):
        # A start grid of 4 evaluates theta = 0 and pi/2 alone, so at
        # refine_tol 1e-10 the odd samples, fits and ladders find every
        # peak from those two.  The interval holds the mpmath profile at
        # the dense-grid maximiser (golden-section refined), and the value
        # is the mpmath profile at theta_star within the sample error.
        rng = np.random.default_rng(900 + n)
        for _ in range(2):
            X = random_complex(rng, n)
            A, B = cartesian_decompose(X)
            for spec in (OPERATOR, TRACE, schatten(3)):
                p = spec.schatten_p
                est = omega_n(spec, X, grid=4, refine_tol=1e-10)
                L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
                assert est.cert_error <= 0.5 * L * 1e-10, (n, spec.label, est)
                step = math.pi / 4096
                thetas = step * np.arange(4096)
                a = thetas[int(np.argmax(profile_at(X, p, thetas)))] - step
                b = a + 2 * step
                for _ in range(60):
                    c, d = b - 0.618 * (b - a), a + 0.618 * (b - a)
                    fc, fd = profile_at(X, p, np.array([c, d]))
                    a, b = (a, d) if fc >= fd else (c, b)
                peak = self.mp_profile(X, p, 0.5 * (a + b))
                assert peak <= est.value + est.cert_error, (n, spec.label, peak, est)
                slack = radius._sample_error(A, B, p)
                assert abs(self.mp_profile(X, p, est.theta_star) - est.value) <= slack, (n, spec.label, est)

    @staticmethod
    def frobenius_inputs():
        for k, n in enumerate((2, 3, 4, 6)):
            U = random_unitary(GenConfig(n, 80 + k))
            signs = np.random.default_rng(80 + k).choice([-1.0, 1.0], n - 1)
            d = np.concatenate([[1.0], signs * 1e-8])
            yield f"rank_deficient{n}", U @ np.diag(d) @ U.conj().T
            yield f"rank_deficient_phase{n}", densified(np.diag(d), 90 + k)
        D = np.diag([1.0, 1e-3, 1e-6])
        for seed in range(3):
            yield f"badly_scaled{seed}", D @ random_complex(np.random.default_rng(100 + seed), 3) @ D
        for n in (16, 32, 64):
            yield f"large{n}", random_complex(np.random.default_rng(110 + n), n)

    def test_frobenius_closed_form_against_mpmath(self):
        refine_tol = 1e-10
        for name, X in self.frobenius_inputs():
            n = X.shape[0]
            ref = mp_frobenius_radius(X)
            est = omega_n(FROBENIUS, X, refine_tol=refine_tol)
            A, B = cartesian_decompose(X)
            L = hermitian_norm(FROBENIUS, A) + hermitian_norm(FROBENIUS, B)
            assert ref <= est.value + est.cert_error, (name, ref, est)
            assert abs(est.value - ref) <= 4 * n * n * EPS * ref, (name, ref, est)
            assert est.cert_error <= 0.5 * L * refine_tol, (name, est.cert_error)
            assert abs(radius_profile(FROBENIUS, X, est.theta_star) - ref) <= 4 * n * n * EPS * ref


def two_peaks(n: int, seed: int) -> np.ndarray:
    """A profile with two near-equal peaks.

    diag(1, 0.8i) has tr profile |cos t| + 0.8 |sin t| (and an sp:3
    analogue), with equal peaks at atan(0.8) and pi - atan(0.8); a small
    diagonal tail and a 1e-9 perturbation make them near-equal.
    """
    rng = np.random.default_rng(seed)
    d = np.concatenate([[1.0, 0.8j], 0.05 * rng.uniform(size=n - 2)])
    return densified(np.diag(d), seed) + 1e-9 * random_complex(rng, n)


def covers_period(cells) -> bool:
    """Whether intervals [c - r, c + r] cover [0, pi) modulo pi, in exact arithmetic.

    Endpoints are formed from the doubles at 60 digits, with the true pi
    as the period, so a gap at a rounding seam counts.
    """
    import mpmath

    with mpmath.workdps(60):
        pi = +mpmath.pi
        pieces = []
        for c, r in cells:
            lo = mpmath.mpf(float(c)) - mpmath.mpf(float(r))
            hi = mpmath.mpf(float(c)) + mpmath.mpf(float(r))
            shift = mpmath.floor(lo / pi) * pi
            lo, hi = lo - shift, hi - shift
            pieces.append((lo, min(hi, pi)))
            if hi > pi:
                pieces.append((mpmath.mpf(0), hi - pi))
        reach = mpmath.mpf(0)
        for lo, hi in sorted(pieces):
            if lo > reach:
                return False
            reach = max(reach, hi)
        return reach >= pi


class TestLadder:
    @staticmethod
    def record_first_cells(monkeypatch) -> list:
        """Capture the cells each _subdivide call starts from, per lane."""
        seen = []
        original = radius._subdivide

        def recorded(A, B, p, cells, *args):
            seen.append({l: list(zip(theta, r)) for l, (theta, r, _) in cells.items()})
            return original(A, B, p, cells, *args)

        monkeypatch.setattr(radius, "_subdivide", recorded)
        return seen

    @staticmethod
    def record_grid_rows(monkeypatch) -> list:
        """Capture the (row, open_) pairs _open_blocks receives, one per lane."""
        seen = []
        original = radius._open_blocks

        def recorded(row, open_):
            seen.append((row.copy(), open_.copy()))
            return original(row, open_)

        monkeypatch.setattr(radius, "_open_blocks", recorded)
        return seen

    @staticmethod
    def grid_cells(row: np.ndarray, open_: np.ndarray, h: float) -> list:
        """Cells that a lane's fine grid row certifies without a ladder.

        A skipped (NaN) odd sample stands for its two passing coarse
        neighbours, of half-width h + pad; every other sample that is not
        open gives a cell of h/2 + pad, never wider than its real cell.
        """
        grid = len(row)
        cells = []
        for k, (value, is_open) in enumerate(zip(row.tolist(), open_.tolist())):
            if math.isnan(value):
                cells += [((k - 1) * h, h + _PAD), ((k + 1) % grid * h, h + _PAD)]
            elif not is_open:
                cells.append((k * h, 0.5 * h + _PAD))
        return cells

    @pytest.mark.parametrize("grid", [8, 32, 256])
    def test_cells_cover_the_period(self, grid, monkeypatch):
        # The passing cells of each lane's grid row and its ladders cover
        # [0, pi) modulo pi, rounding seams included, for random inputs, two
        # near-equal peaks, several lanes at once, and lanes still open
        # after their ladders: op and tr at the two seeded inputs for grids
        # 8 and 32, and a lane whose ladders have one cell a side at every
        # grid.
        h = math.pi / grid
        skipped = passed = False
        seen = self.record_first_cells(monkeypatch)
        rows = self.record_grid_rows(monkeypatch)
        calls = count_hermitian_eig_matrices(monkeypatch)
        opened = []
        recorded = radius._subdivide

        def counted(*args):
            before = len(calls)
            recorded(*args)
            opened.append(len(calls) > before)

        monkeypatch.setattr(radius, "_subdivide", counted)
        rng = np.random.default_rng(23)
        batches = [[random_complex(rng, n)] for n in (2, 3, 5, 16)]
        batches += [[two_peaks(4, 24)], [random_complex(rng, 4) for _ in range(3)]]
        batches += [[random_complex(np.random.default_rng(seed), n)] for seed, n in ((272, 3), (2932, 3))]
        batches += [None]
        for Xs in batches:
            if Xs is None:
                monkeypatch.setattr(radius, "_MAX_RUNGS", 1)
                Xs = [random_complex(rng, 4)]
            for spec in (OPERATOR, TRACE, schatten(3)):
                seen.clear()
                rows.clear()
                omega_n(spec, *Xs, grid=grid)
                assert len(seen) == 1 and len(rows) == len(Xs)
                assert sorted(seen[0]) == list(range(len(Xs)))
                for l, (row, open_) in enumerate(rows):
                    assert covers_period(self.grid_cells(row, open_, h) + seen[0][l])
                    odd = row[1::2]
                    skipped |= bool(np.isnan(odd).any())
                    passed |= bool((~np.isnan(odd) & ~open_[1::2]).any())
        assert skipped and passed
        assert opened[-1], "the lane with one-cell ladders did not stay open"

    def test_unpadded_grid_cells_leave_a_seam(self):
        # The exact check sees rounding seams: cells of half-width h/2 around
        # the computed grid centres leave a gap for some grids, and the pad
        # closes it.
        gaps = []
        for grid in range(8, 80, 2):
            centers = np.arange(grid) * (math.pi / grid)
            assert covers_period([(c, 0.5 * math.pi / grid + _PAD) for c in centers])
            gaps.append(not covers_period([(c, 0.5 * math.pi / grid) for c in centers]))
        assert any(gaps)

    @settings(max_examples=200, deadline=None)
    @given(
        peak=st.floats(-1.0, 4.0),
        kappa=st.sampled_from([0.0, 1e-12, 0.01, 0.5, 1.0]),
        g=st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 0.1]),
        lo=st.floats(-0.5, 3.0),
        width=st.floats(0.0, math.pi),
    )
    def test_ladder_covers_its_block(self, peak, kappa, g, lo, width):
        # Whatever the fit (a peak outside the block, no curvature, no gap
        # budget), the padded ladder covers [lo, hi] in exact arithmetic.
        import mpmath

        hi = lo + width
        at, widths = _ladder(peak, kappa, 1.0, g, lo, hi)
        assert len(at) <= 1 + 2 * radius._MAX_RUNGS
        with mpmath.workdps(60):
            cells = [(mpmath.mpf(c), mpmath.mpf(r + _PAD)) for c, r in zip(at, widths)]
            pieces = sorted((c - r, c + r) for c, r in cells)
            reach = mpmath.mpf(lo)
            for a, b in pieces:
                if a > reach:
                    break
                reach = max(reach, b)
            assert reach >= mpmath.mpf(hi)

    @pytest.mark.parametrize("offset, rounds", [(0.5, 2), (1.5, 3)])
    def test_clipped_first_fit_round_repeats(self, offset, rounds, monkeypatch):
        # e^{-0.7i} A, A Hermitian, has f(theta) = |cos(theta - 0.7)| N(A).  A
        # start more than one first-round spacing from the peak is clipped,
        # and that round repeats once from where it got to; the second round
        # then lands on the peak.
        A0 = random_hermitian(np.random.default_rng(27), 4)
        A, B = cartesian_decompose(np.exp(-0.7j) * A0)
        h = math.pi / radius.DEFAULT_GRID
        start = 0.7 + offset * h * radius._FIT_GRID_FRACTION
        calls = count_hermitian_eig_matrices(monkeypatch)
        for spec in (OPERATOR, TRACE):
            calls.clear()
            lane = radius._Lane(-math.inf, 0.0, 0.0, 0.0, math.inf)
            [(peak, kappa, top)] = radius._fit_peaks(A[None], B[None], spec.schatten_p, {0: [start]}, h, {0: lane})[0]
            assert len(calls) == rounds, calls
            assert peak == pytest.approx(0.7, abs=1e-8)
            assert kappa == pytest.approx(hermitian_norm(spec, A0), rel=1e-4)
            assert top == lane.value == pytest.approx(hermitian_norm(spec, A0), rel=1e-12)

    def test_open_blocks_split_at_sampled_minima(self):
        # Open cells 0, 1, 3..6, 8, 9: the run 3..6 is cut after its sampled
        # minimum at 4, and the run 8..11 wraps past the grid's end.
        row = np.array([6.0, 5.0, 0.0, 9.0, 7.0, 8.0, 6.0, 0.0, 3.0, 4.0])
        assert _open_blocks(row, row > 2.0) == [(3, 3, 4), (5, 5, 6), (10, 8, 11)]
        # All open: one walk that ends at the lowest cell, 2 (as 12).
        assert _open_blocks(row, row > -1.0) == [(3, 3, 4), (5, 5, 7), (10, 8, 12)]

    def test_open_blocks_partition_the_open_cells(self):
        rng = np.random.default_rng(25)
        for grid in (8, 32):
            for _ in range(200):
                row = rng.uniform(size=grid)
                open_ = rng.uniform(size=grid) < rng.uniform()
                blocks = _open_blocks(row, open_)
                cells = sorted(k % grid for _, first, last in blocks for k in range(first, last + 1))
                assert cells == np.flatnonzero(open_).tolist()
                for best, first, last in blocks:
                    values = [row[k % grid] for k in range(first, last + 1)]
                    assert first <= best <= last and row[best % grid] == max(values)
                    # A block rises to its highest cell and falls after it.
                    top = best - first
                    assert all(a <= b for a, b in zip(values[:top], values[1 : top + 1]))
                    assert all(a >= b for a, b in zip(values[top:], values[top + 1 :]))

    # Random inputs up to n = 32, two near-equal peaks, and lanes that go on
    # into _subdivide: naturally (a fit the ladder cannot close, a nearly
    # flat profile) and with ladders of at most two cells a side.  The last
    # field lists the norms whose lane must subdivide.
    @pytest.mark.parametrize(
        "build, rungs, subdivides",
        [
            pytest.param(
                lambda n=n: random_complex(np.random.default_rng(300 + n), n), None, "", id=f"n{n}"
            )
            for n in (2, 3, 4, 6, 16, 32)
        ]
        + [
            pytest.param(lambda: two_peaks(2, 26), None, "", id="two_peaks2"),
            pytest.param(lambda: two_peaks(5, 26), None, "", id="two_peaks5"),
            pytest.param(lambda: random_complex(np.random.default_rng(2932), 3), None, "tr", id="open_tr3"),
            pytest.param(lambda: random_complex(np.random.default_rng(3588), 4), None, "sp:3", id="open_sp4"),
            pytest.param(lambda: random_complex(np.random.default_rng(272), 3), None, "op", id="open_op3"),
            pytest.param(lambda: lockstep_batch(16)[-1], None, "op sp:3", id="near_circular16"),
            pytest.param(lambda: random_complex(np.random.default_rng(316), 6), 2, "op tr sp:3", id="rungs6"),
            pytest.param(lambda: random_complex(np.random.default_rng(326), 16), 2, "op tr sp:3", id="rungs16"),
        ],
    )
    @pytest.mark.parametrize("spec", (OPERATOR, TRACE, schatten(3)), ids=lambda s: s.label)
    def test_dense_oracle_enclosure(self, spec, build, rungs, subdivides, monkeypatch):
        # A dense grid plus golden-section refinement of its top peaks, on
        # another code path, lies in [value, value + cert_error].
        X = build()
        if rungs is not None:
            monkeypatch.setattr(radius, "_MAX_RUNGS", rungs)
        calls = count_hermitian_eig_matrices(monkeypatch)
        evaluated = []
        original = radius._subdivide

        def recorded(*args):
            before = len(calls)
            original(*args)
            evaluated.append(len(calls) - before)

        monkeypatch.setattr(radius, "_subdivide", recorded)
        est = omega_n(spec, X)
        if spec.label in subdivides.split():
            assert sum(evaluated), "the lane did not subdivide"
        A, B = cartesian_decompose(X)
        L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
        oracle = refined_oracle_omega(X, spec.schatten_p, samples=2048)
        # Both are profile samples within rounding of exact ones.
        tol = 1e-13 * L
        assert est.value <= oracle + tol, (est.value, oracle)
        assert oracle <= est.value + est.cert_error + tol, (oracle, est.value, est.cert_error)
        assert est.cert_error <= 0.5 * L * 1e-10


class TestOmega:
    def test_identity(self):
        assert omega(np.eye(3)).value == pytest.approx(1.0, abs=1e-12)

    def test_normal_matrix_equals_operator_norm(self):
        rng = np.random.default_rng(12)
        for k in range(10):
            n = int(rng.integers(2, 6))
            U = random_unitary(GenConfig(n, 100 + k))
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            X = U @ np.diag(lam) @ U.conj().T
            est = omega(X)
            assert est.value == pytest.approx(np.abs(lam).max(), abs=1e-8)

    def test_two_sided_operator_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            X = random_complex(rng, int(rng.integers(2, 6)))
            est = omega(X)
            nx = evaluate_norm(OPERATOR, X)
            assert 0.5 * nx <= est.value + est.cert_error + 1e-12
            assert est.value <= nx * (1 + 1e-12)

    def test_nilpotent_attains_lower_bound(self):
        est = omega(VOLTERRA)
        assert est.value == pytest.approx(0.5 * evaluate_norm(OPERATOR, VOLTERRA), abs=1e-8)


class TestNumericalRangeBoundary:
    def test_identity_collapses_to_point(self):
        pts = numerical_range_boundary(np.eye(2), 16)
        assert all(abs(p.boundary_point - 1.0) <= 1e-12 for p in pts)

    def test_normal_diag_segment(self):
        pts = numerical_range_boundary(np.diag([0.0, 1.0]), 64)
        vals = np.array([p.boundary_point for p in pts])
        assert np.all(vals.real >= -1e-12) and np.all(vals.real <= 1 + 1e-12)
        assert np.max(np.abs(vals.imag)) <= 1e-12
        assert vals.real.min() == pytest.approx(0.0, abs=1e-12)
        assert vals.real.max() == pytest.approx(1.0, abs=1e-12)

    def test_points_lie_in_numerical_range(self):
        # Re-evaluate the quadratic form on fresh eigenvectors: every point
        # must be reproducible as <Xv, v> with unit v.
        rng = np.random.default_rng(14)
        X = random_complex(rng, 4)
        pts = numerical_range_boundary(X, 32)
        A = (X + X.conj().T) / 2
        B = (X - X.conj().T) / 2j
        for p in pts:
            H = math.cos(p.theta) * A + math.sin(p.theta) * B
            w, V = np.linalg.eigh(H)
            v = V[:, -1]
            assert abs(np.vdot(v, X @ v) - p.boundary_point) <= 1e-9 * max(1.0, abs(p.boundary_point))

    def test_max_modulus_consistent_with_omega(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            X = random_complex(rng, 4)
            samples = 360
            pts = numerical_range_boundary(X, samples)
            m = max(abs(p.boundary_point) for p in pts)
            est = omega(X)
            slack = est.cert_error + 2 * math.pi * evaluate_norm(OPERATOR, X) / samples
            assert m <= est.value + est.cert_error + 1e-12
            assert est.value <= m + slack

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            numerical_range_boundary(np.eye(2), 3)

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_angles_are_solved_in_bounded_batches(self, monkeypatch, n):
        # Past _EIG_BATCH angles the support points are solved in chunks,
        # so memory stays bounded; the points keep the bits of one eigh
        # and one einsum over every angle.
        samples = 2 * _EIG_BATCH + 3
        X = random_complex(np.random.default_rng(16 + n), n)
        thetas = 2.0 * math.pi * np.arange(samples) / samples
        A, B = cartesian_decompose(X)
        w, V = np.linalg.eigh(np.cos(thetas)[:, None, None] * A + np.sin(thetas)[:, None, None] * B)
        lam_max = w[:, -1]
        idx = (w >= (lam_max - 1e-12 * np.maximum(1.0, np.abs(lam_max)))[:, None]).argmax(axis=1)
        v = V[np.arange(samples), :, idx]
        want = np.einsum("ki,ij,kj->k", v.conj(), X, v)
        calls = count_linalg_matrices(monkeypatch, ("eigh",))
        pts = numerical_range_boundary(X, samples)
        assert calls == [_EIG_BATCH, _EIG_BATCH, 3]
        assert [p.theta for p in pts] == thetas.tolist()
        assert np.array([p.boundary_point for p in pts]).tobytes() == want.tobytes()
