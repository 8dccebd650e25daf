import math
import sys
import threading

import numpy as np
import pytest

from helpers import count_linalg_matrices
from sector_radius import generator
from sector_radius.generator import (
    GenConfig,
    Streams,
    accretive_dissipative_stack,
    ginibre_stack,
    mix_seed,
    pd_stack,
    random_accretive_dissipative,
    random_ginibre,
    random_pd,
    random_sectorial,
    random_unitary,
    sectorial_stack,
)
from sector_radius.linalg import is_psd
from sector_radius.sectorial import sec_block, sector_index, tan_block


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(0, 1)
        with pytest.raises(ValueError):
            GenConfig(2, 1, scale=0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_scale_must_be_finite(self, scale):
        # Such a scale would give non-finite Ginibre entries.
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            GenConfig(3, 1, scale=scale)

    @pytest.mark.parametrize("scale", [2.0**-256, 2.0**256])
    def test_scale_range_ends_pass(self, scale):
        GenConfig(3, 1, scale=scale)

    @pytest.mark.parametrize("scale", [math.nextafter(2.0**-256, 0.0), 1e-170, math.nextafter(2.0**256, math.inf), 1e160])
    def test_scale_outside_the_safe_range_is_refused(self, scale):
        # At 1e160 a positive definite draw's G G* overflows, and at 1e-170
        # a sectorial draw underflows to the zero matrix.
        with pytest.raises(ValueError, match=r"scale must lie in \[2\^-256, 2\^256\]"):
            GenConfig(3, 1, scale=scale)

    @pytest.mark.parametrize("n", [3.0, True, np.bool_(True)])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            GenConfig(n, 1)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            GenConfig(3, seed)

    def test_python_and_numpy_integers_pass(self):
        import random

        GenConfig(3, random.Random(0).getrandbits(63))
        cfg = GenConfig(np.int32(3), np.uint64(2**64 - 1), scale=np.float32(2.0))
        assert (type(cfg.n), type(cfg.seed), type(cfg.scale)) == (int, int, float)
        assert np.array_equal(random_ginibre(cfg), random_ginibre(GenConfig(3, 2**64 - 1, scale=2.0)))


class TestMixSeed:
    def test_deterministic_and_tag_sensitive(self):
        assert mix_seed(42, 1) == mix_seed(42, 1)
        assert mix_seed(42, 1) != mix_seed(42, 2)
        assert mix_seed(42, 1) != mix_seed(43, 1)
        assert 0 <= mix_seed(2**63 + 17, 5, 9) < 2**64


class TestGinibre:
    def test_same_seed_identical(self):
        cfg = GenConfig(4, 123)
        assert np.array_equal(random_ginibre(cfg), random_ginibre(cfg))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            random_ginibre(GenConfig(4, 1)), random_ginibre(GenConfig(4, 2))
        )

    def test_mean_entry_magnitude(self):
        # E|z| for a standard complex Gaussian is sqrt(pi)/2 ~ 0.8862.
        mags = []
        for s in range(1000):
            mags.append(np.mean(np.abs(random_ginibre(GenConfig(4, s)))))
        mean = float(np.mean(mags))
        assert abs(mean - math.sqrt(math.pi) / 2) <= 0.1 * math.sqrt(math.pi) / 2

    def test_scale(self):
        X1 = random_ginibre(GenConfig(3, 9, scale=1.0))
        X2 = random_ginibre(GenConfig(3, 9, scale=2.5))
        assert np.allclose(X2, 2.5 * X1)


class TestRandomPd:
    def test_hermitian_and_positive(self):
        for s in range(100):
            P = random_pd(GenConfig(3, s))
            assert np.max(np.abs(P - P.conj().T)) <= 1e-14 * max(1.0, np.abs(P).max())
            assert np.linalg.eigvalsh(P).min() > 0

    def test_psd_certificate(self):
        P = random_pd(GenConfig(5, 77))
        assert is_psd(P, tol=0.0)

    def test_deterministic(self):
        assert np.array_equal(random_pd(GenConfig(4, 5)), random_pd(GenConfig(4, 5)))

    def test_one_cholesky_certifies_a_stack(self, monkeypatch):
        # linalg.pd_certificate proves every draw positive definite in one
        # stacked cholesky; no eigensolve runs unless a draw fails.
        eigvalsh = count_linalg_matrices(monkeypatch, ("eigvalsh", "eigh"))
        cholesky = count_linalg_matrices(monkeypatch, ("cholesky",))
        P = pd_stack([GenConfig(6, 60 + k) for k in range(4)])
        assert cholesky == [4] and eigvalsh == []
        assert all(np.linalg.eigvalsh(Pk)[0] > 0 for Pk in P)

    def test_a_failed_certificate_names_lambda_min(self, monkeypatch):
        # The message computes lambda_min of the first draw that fails.
        def fails_second(H, extra=0.0):
            return np.array([True, False]), None, None

        monkeypatch.setattr(generator, "pd_certificate", fails_second)
        cfgs = [GenConfig(3, 70), GenConfig(3, 71)]
        lam = np.linalg.eigvalsh(random_pd(cfgs[1]))[0]
        with pytest.raises(RuntimeError, match=f"lambda_min = {float(lam)}"):
            pd_stack(cfgs)


class TestRandomSectorial:
    def test_alpha_zero_is_positive_definite(self):
        X = random_sectorial(GenConfig(4, 3), 0.0)
        assert np.max(np.abs(X - X.conj().T)) <= 1e-13 * np.abs(X).max()
        assert np.linalg.eigvalsh((X + X.conj().T) / 2).min() > 0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.4])
    def test_index_is_pinned(self, alpha):
        for s in range(10):
            X = random_sectorial(GenConfig(3, 100 * s + 7, scale=1.0), alpha)
            got = sector_index(X).index_alpha
            assert abs(got - alpha) <= 1e-6

    def test_accretive_dissipative_class_index_at_most_pi_over_4(self):
        # The range sits in the open first quadrant, so rotating by
        # e^{-i pi/4} fits it inside the sector of half-width pi/4.
        from sector_radius.sectorial import rotation_to_sector

        X = random_accretive_dissipative(GenConfig(4, 11))
        info = rotation_to_sector(X)
        assert info.index_alpha <= np.pi / 4 + 1e-9

    def test_blocks_psd_at_target(self):
        for s in range(5):
            alpha = 0.25 + 0.25 * s
            X = random_sectorial(GenConfig(3, s, scale=1.0), alpha)
            assert is_psd(tan_block(X, alpha + 1e-8), tol=1e-9)
            assert is_psd(sec_block(X, alpha + 1e-8), tol=1e-9)

    def test_no_linalg_call_per_stack(self, monkeypatch):
        # The draw is the congruence G (I + i diag(t)) G*: its tilt is a
        # vector, scaled by its own largest modulus, so nothing solves,
        # factors or eigensolves.  Its alpha = 0 lane is G G*, exactly
        # Hermitian and positive definite.
        routines = [name for name in np.linalg.__all__ if name != "LinAlgError"]
        calls = count_linalg_matrices(monkeypatch, routines)
        cfgs = [GenConfig(5, 40 + k) for k in range(3)]
        X = sectorial_stack(cfgs, [0.7, 0.0, 1.3])
        X1 = random_sectorial(GenConfig(1, 3), 1.2)
        assert calls == [] and X1.shape == (1, 1)
        P = X[1]
        assert np.array_equal(P, P.conj().T)
        assert np.linalg.eigvalsh(P).min() > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
    def test_claimed_extremes_are_the_exact_pencil_extremes(self, n):
        # G and t rebuilt from the draw's streams give the exact X = G (I +
        # i diag(t)) G* at 30 digits: its pencil (Im X, Re X) has
        # eigenvalues t, so its extremes must be the claimed ones.  The
        # stored X must be that X to rounding: its own pencil's extremes
        # lie within (|dB| + |t| |dA|) / lambda_min(Re X) of them, for the
        # forming error (n + 2) eps ||G||_F^2 (1 + max|t|) of each part.
        # (A tilt that scaled G's rows, not its columns, misses this.)
        import mpmath

        from helpers import mp_matrix, mp_pencil_extremes

        seeds, alphas = [7000 + n, 7100 + n, 7200 + n], [0.3, 1.0, 1.4]
        X, lo, hi = generator._sectorial_draw(Streams(), n, seeds, [1.0] * 3, alphas)
        for k, (seed, alpha) in enumerate(zip(seeds, alphas)):
            G = ginibre_stack([GenConfig(n, mix_seed(seed, generator._STREAM_SECT_BASE))])[0]
            t = 2.0 * Streams().rng(mix_seed(seed, generator._STREAM_SECT_TILT)).random(n) - 1.0
            t *= math.tan(alpha) / np.max(np.abs(t))
            assert (t.min(), t.max()) == (lo[k], hi[k])
            with mpmath.workdps(30):
                Gm = mp_matrix(G)
                A, B = Gm * Gm.H, Gm * mpmath.diag([mpmath.mpf(float(v)) for v in t]) * Gm.H
                exact = mp_pencil_extremes(A, B)
                Xm = mp_matrix(X[k])
                stored = mp_pencil_extremes((Xm + Xm.H) / 2, (Xm - Xm.H) / mpmath.mpc(0, 2))
                lam_min = min(mpmath.re(v) for v in mpmath.eighe(A, eigvals_only=True))
            peak = max(-lo[k], hi[k])
            tol = 2.0 * (n + 2) * 2.0**-53 * np.linalg.norm(G) ** 2 * (1.0 + peak) ** 2 / float(lam_min)
            for got, want in zip(exact, (lo[k], hi[k])):
                assert abs(got - want) <= 1e-25 * (1.0 + peak), (k, got, want)
            for got, want in zip(stored, (lo[k], hi[k])):
                assert abs(got - want) <= tol, (k, got, want, tol)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            random_sectorial(GenConfig(2, 1), -0.1)
        with pytest.raises(ValueError):
            random_sectorial(GenConfig(2, 1), np.pi / 2)


class TestRandomAccretiveDissipative:
    def test_parts_positive_definite(self):
        for s in range(50):
            X = random_accretive_dissipative(GenConfig(3, s))
            re = (X + X.conj().T) / 2
            im = (X - X.conj().T) / 2j
            assert np.linalg.eigvalsh(re).min() > 0
            assert np.linalg.eigvalsh(im).min() > 0

    def test_deterministic(self):
        a = random_accretive_dissipative(GenConfig(4, 9))
        b = random_accretive_dissipative(GenConfig(4, 9))
        assert np.array_equal(a, b)


class TestRandomUnitary:
    def test_unitarity(self):
        for s in range(20):
            U = random_unitary(GenConfig(4, s))
            assert np.linalg.norm(U.conj().T @ U - np.eye(4)) <= 1e-12

    def test_singular_values_one(self):
        U = random_unitary(GenConfig(5, 3))
        s = np.linalg.svd(U, compute_uv=False)
        assert np.max(np.abs(s - 1.0)) <= 1e-12

    def test_determinant_modulus_one(self):
        for s in range(10):
            U = random_unitary(GenConfig(3, 50 + s))
            assert abs(abs(np.linalg.det(U)) - 1.0) <= 1e-12


class TestStacks:
    def test_rekeyed_streams_match_fresh_generators(self):
        streams = Streams()
        for key in (0, 1, 2**63 + 5, 2**64 - 1, mix_seed(7, 3)):
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(streams.rng(key).random(13), fresh.random(13))

    def test_draws_interleaved_across_threads_equal_single_thread_draws(self):
        # Each thread re-keys its own Streams, and a re-key sets the whole
        # Philox state, so draws racing in two threads keep the bits of
        # the same draws made one after another in one thread.
        from sector_radius.harness import REGISTRY, generate_inputs

        ids = ("T1_prod_sec_N", "C_AD_prod2", "B_prod4", "P3_sec")

        def draws(offset):
            out = []
            for k in range(40):
                cfg = GenConfig(3 + k % 3, offset + k)
                out.append(random_sectorial(cfg, 0.9).tobytes())
                out.append(random_unitary(cfg).tobytes())
                out.append(pd_stack([cfg, GenConfig(cfg.n, offset - k)]).tobytes())
                out.extend(M.tobytes() for M in generate_inputs(REGISTRY[ids[k % 4]], cfg.n, offset + k))
            return out

        want = {offset: draws(offset) for offset in (1000, 2000)}
        got, barrier = {}, threading.Barrier(2, timeout=60)

        def run(offset):
            barrier.wait()
            got[offset] = draws(offset)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(offset,)) for offset in want]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_each_matrix_of_a_stack_is_its_single_draw(self, n):
        cfgs = [GenConfig(n, 900 + k, scale) for k, scale in enumerate((1.0, 1e-8, 3.5, 1e8))]
        alphas = [0.3, 0.0, 1.4, math.pi / 2 - 1e-6]
        stacks = (
            (ginibre_stack(cfgs), [random_ginibre(c) for c in cfgs]),
            (pd_stack(cfgs), [random_pd(c) for c in cfgs]),
            (sectorial_stack(cfgs, alphas), [random_sectorial(c, a) for c, a in zip(cfgs, alphas)]),
            (accretive_dissipative_stack(cfgs), [random_accretive_dissipative(c) for c in cfgs]),
        )
        for stack, singles in stacks:
            assert stack.shape == (len(cfgs), n, n)
            for M, single in zip(stack, singles):
                assert M.tobytes() == single.tobytes()

    @pytest.mark.parametrize("k", [-200, -40, 40, 200])
    def test_a_power_of_two_scale_scales_the_draw_exactly(self, k):
        # Ginibre entries scale with the scale, every other draw with its
        # square (G G*, G T G* and the positive definite shift alike).
        c = math.ldexp(1.0, k)
        draws = (
            (random_ginibre, c),
            (random_pd, c * c),
            (lambda cfg: random_sectorial(cfg, 0.7), c * c),
            (random_accretive_dissipative, c * c),
        )
        for draw, factor in draws:
            for seed in (3, 41):
                unit = draw(GenConfig(4, seed))
                assert (draw(GenConfig(4, seed, c)) == factor * unit).all(), (draw, k, seed)

    def test_stack_validation(self):
        with pytest.raises(ValueError, match="config 1 has n = 3"):
            ginibre_stack([GenConfig(2, 1), GenConfig(3, 1)])
        with pytest.raises(ValueError, match="at least one config"):
            ginibre_stack([])
        with pytest.raises(ValueError, match="alphas"):
            sectorial_stack([GenConfig(2, 1), GenConfig(2, 2)], [0.5])
        with pytest.raises(ValueError, match="alpha must lie"):
            sectorial_stack([GenConfig(2, 1), GenConfig(2, 2)], [0.5, 2.0])
