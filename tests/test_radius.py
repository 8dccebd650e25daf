import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sector_radius.generator import GenConfig, random_unitary
from sector_radius.harness import CheckContext
from sector_radius.linalg import cartesian_decompose
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
    numerical_range_boundary,
    omega,
    omega_n,
    radius_profile,
)
from helpers import (
    count_hermitian_eig_matrices,
    mp_frobenius_radius,
    norm_of_svals,
    oracle_omega,
    oracle_resolution_slack,
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
    return _profile_values(A[None], B[None], [(0, 0, len(thetas))], thetas, p)


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
        # The start grid is anchored at theta = 0, where the profile of a
        # Hermitian A peaks; iA peaks at pi/2, sample 16 of 32.  Subdivision
        # centres are never 0 or pi/2.
        A = random_hermitian(np.random.default_rng(300 + n), n)
        base = hermitian_norm(spec, A)
        for X, angle in ((A, 0.0), (1j * A, math.pi / 2)):
            est = omega_n(spec, X)
            assert est.theta_star == angle, est
            assert abs(est.value - base) <= 4 * n * EPS * base, est

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
        with pytest.raises(ValueError):
            omega_n(OPERATOR, np.eye(2), grid=4)
        with pytest.raises(ValueError):
            omega_n(OPERATOR, np.eye(2), refine_tol=0.0)

    @pytest.mark.parametrize("grid", [9, 33, 255])
    def test_odd_grid_is_refused(self, grid):
        # An odd grid never samples theta = pi/2, where the profile of a
        # skew-Hermitian matrix peaks.
        with pytest.raises(ValueError, match="even integer"):
            omega_n(TRACE, 1j * np.eye(2), grid=grid)
        with pytest.raises(ValueError, match="even integer"):
            CheckContext(grid=grid)


class TestEigensolverBudget:
    def test_omega_n_eigensolver_calls(self, monkeypatch):
        # The start grid and certification stay within 20 batched
        # eigensolver calls per radius, norms of the Cartesian parts
        # included.
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
        # The norms of the Cartesian parts, the start grid and certification
        # (the fit rounds and ladders of op, tr and sp:3; fro's one sample)
        # together average at most 45 Hermitian eigensolver matrices per
        # radius (43.4 measured).
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
        assert np.mean(per_call) <= 45, np.mean(per_call)

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
        # at every n: the norms of the Cartesian parts, the start grid, two
        # fit rounds and the ladders.
        counts = count_hermitian_eig_matrices(monkeypatch)
        rng = np.random.default_rng(22)
        ceiling = {OPERATOR: 70, TRACE: 90, schatten(3): 100}[spec]
        for n in (2, 3, 4, 5, 6, 16, 32):
            calls, matrices = [], []
            for _ in range(8):
                counts.clear()
                omega_n(spec, random_complex(rng, n))
                calls.append(len(counts))
                matrices.append(sum(counts))
            assert np.median(calls) <= 5, (n, calls)
            assert np.mean(matrices) <= ceiling, (n, np.mean(matrices))

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


    def test_profile_values_are_chunked(self, monkeypatch):
        # Batches stay within _EIG_BATCH matrices, and chunking leaves
        # every value bit-for-bit as one unchunked eigvalsh call gives it,
        # also where a chunk spans two lanes.
        rng = np.random.default_rng(18)
        parts = [cartesian_decompose(random_complex(rng, 5)) for _ in range(2)]
        A = np.stack([a for a, _ in parts])
        B = np.stack([b for _, b in parts])
        lane = np.repeat([0, 1], [6000, 4000])
        thetas = rng.uniform(0.0, math.pi, 10000)
        for spec in ALL_NORMS:
            p = spec.schatten_p
            H = np.cos(thetas)[:, None, None] * A[lane] - np.sin(thetas)[:, None, None] * B[lane]
            whole = schatten_value(np.abs(np.linalg.eigvalsh(H)), p)
            with monkeypatch.context() as m:
                counts = count_hermitian_eig_matrices(m)
                chunked = _profile_values(A, B, [(0, 0, 6000), (1, 6000, 10000)], thetas, p)
            assert max(counts) <= _EIG_BATCH and sum(counts) == len(thetas)
            assert np.array_equal(chunked, whole), spec.label


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

        def recorded(A, B, p, segments, *args):
            lanes.extend(l for l, _, _ in segments)
            return original(A, B, p, segments, *args)

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
            bound = _rotation_bound(X, K, A, B, p, value, h)
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
            assert _rotation_bound(X, K, A, B, p, value, math.pi) >= 1.0, spec.label

    def test_shift_grading_is_exact(self):
        # K X - X K = -X on Jordan blocks and weighted shifts.
        for name, X in flat_fixtures():
            K = _flag_grading(X)
            assert K is not None, name
            assert np.array_equal(K, K.conj().T)
            assert np.linalg.norm(K @ X - X @ K + X) <= 1e-12 * np.linalg.norm(X), name

    def test_no_certificate_without_rotation_symmetry(self):
        refine_tol = 1e-10
        for name, X in rotation_inputs(19):
            A, B = cartesian_decompose(X)
            K = _flag_grading(X)
            if name == "random":
                assert K is None
            for spec in (TRACE, schatten(3), OPERATOR):
                p = spec.schatten_p
                g_stop = 0.5 * (hermitian_norm(spec, A) + hermitian_norm(spec, B)) * refine_tol
                if K is not None:
                    h = math.pi / radius.DEFAULT_GRID
                    f0 = float(one_lane(A, B, np.arange(radius.DEFAULT_GRID) * h, p).max())
                    assert _rotation_bound(X, K, A, B, p, f0, h) - f0 > g_stop, (name, spec.label)
                est = omega_n(spec, X, refine_tol=refine_tol)
                assert oracle_omega(X, p, 20000) <= est.value + est.cert_error + 1e-12, (name, spec.label)

    def test_random_inputs_never_reach_the_rotation_path(self, monkeypatch):
        # Only a flat start grid asks for the kernel flag.
        def refuse(X):
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
        # A 64 x 64 weighted shift: a bound using the whole period, pi/2
        # instead of h/2, misses g_stop here and the operator norm falls
        # through to subdivision.
        forbid_subdivision(monkeypatch)
        weights = np.random.default_rng(64).uniform(0.5, 2.0, 63)
        X = densified(np.diag(weights, 1), 71)
        A, B = cartesian_decompose(X)
        refine_tol = 1e-10
        for spec in (OPERATOR, TRACE, schatten(3)):
            est = omega_n(spec, X, refine_tol=refine_tol)
            L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
            assert est.cert_error <= 0.5 * L * refine_tol, (spec.label, est.cert_error)

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
            assert radius_profile(FROBENIUS, X, est.theta_star) == est.value


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

        def recorded(A, B, p, segments, theta, values, r, *args):
            seen.append({l: list(zip(theta[lo:hi], r[lo:hi])) for l, lo, hi in segments})
            return original(A, B, p, segments, theta, values, r, *args)

        monkeypatch.setattr(radius, "_subdivide", recorded)
        return seen

    @pytest.mark.parametrize("grid", [8, 32, 256])
    def test_cells_cover_the_period(self, grid, monkeypatch):
        # The passing grid cells and the ladders cover [0, pi) modulo pi,
        # rounding seams included, for random inputs, two near-equal peaks,
        # several lanes at once, and lanes whose ladders leave them open (op
        # and tr at the last two inputs).
        seen = self.record_first_cells(monkeypatch)
        rng = np.random.default_rng(23)
        batches = [[random_complex(rng, n)] for n in (2, 3, 5, 16)]
        batches += [[two_peaks(4, 24)], [random_complex(rng, 4) for _ in range(3)]]
        batches += [[random_complex(np.random.default_rng(seed), n)] for seed, n in ((272, 3), (2932, 3))]
        for Xs in batches:
            for spec in (OPERATOR, TRACE, schatten(3)):
                seen.clear()
                omega_n(spec, *Xs, grid=grid)
                assert len(seen) == 1
                assert sorted(seen[0]) == list(range(len(Xs)))
                for cells in seen[0].values():
                    assert covers_period(cells)

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
            best = radius._Best(1)
            [(peak, kappa, top)] = radius._fit_peaks(A[None], B[None], spec.schatten_p, [0], [start], h, best)
            assert len(calls) == rounds, calls
            assert peak == pytest.approx(0.7, abs=1e-8)
            assert kappa == pytest.approx(hermitian_norm(spec, A0), rel=1e-4)
            assert top == best.value[0] == pytest.approx(hermitian_norm(spec, A0), rel=1e-12)

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
    # into _subdivide: naturally (a fit the ladder cannot close) and with
    # ladders of at most two cells a side.  The last field names the norm
    # whose lane must subdivide ("all": every norm).
    @pytest.mark.parametrize(
        "build, rungs, subdivides",
        [
            pytest.param(
                lambda n=n: random_complex(np.random.default_rng(300 + n), n), None, None, id=f"n{n}"
            )
            for n in (2, 3, 4, 6, 16, 32)
        ]
        + [
            pytest.param(lambda: two_peaks(2, 26), None, None, id="two_peaks2"),
            pytest.param(lambda: two_peaks(5, 26), None, None, id="two_peaks5"),
            pytest.param(lambda: random_complex(np.random.default_rng(2932), 3), None, "tr", id="open_tr3"),
            pytest.param(lambda: random_complex(np.random.default_rng(3588), 4), None, "sp:3", id="open_sp4"),
            pytest.param(lambda: random_complex(np.random.default_rng(272), 3), None, "op", id="open_op3"),
            pytest.param(lambda: random_complex(np.random.default_rng(316), 6), 2, "all", id="rungs6"),
            pytest.param(lambda: random_complex(np.random.default_rng(326), 16), 2, "all", id="rungs16"),
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
        if subdivides in (spec.label, "all"):
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
