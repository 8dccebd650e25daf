import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import count_linalg_matrices
from sector_radius import generator
from sector_radius.generator import (
    GenConfig,
    Streams,
    mix_seed,
    random_accretive_dissipative,
    random_ginibre,
    random_pd,
    random_sectorial,
    random_unitary,
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

    @pytest.mark.parametrize("scale", [True, False, np.bool_(True)])
    def test_scale_must_not_be_a_bool(self, scale):
        # True compares as 1, so it was stored as scale 1.0.
        with pytest.raises(ValueError, match="scale must be a number, not a bool"):
            GenConfig(2, 1, scale)

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
        # The sectorial draw is the congruence G (I + i diag(t)) G*: its tilt
        # is a vector, scaled by its own largest modulus, so nothing solves,
        # factors or eigensolves.  Its alpha = 0 lane is G G*, exactly
        # Hermitian and positive definite.  The positive definite and
        # accretive-dissipative draws are exact, so they are proven by
        # construction, with no certificate, and so is every suite draw.
        from sector_radius.harness import REGISTRY, generate_inputs

        routines = [name for name in np.linalg.__all__ if name != "LinAlgError"]
        calls = count_linalg_matrices(monkeypatch, routines)
        seeds = [40, 41, 42]
        X = generator._sectorial_draw(Streams(), 5, seeds, [1.0] * 3, [0.7, 0.0, 1.3])
        X1 = random_sectorial(GenConfig(1, 3), 1.2)
        generator._pd(Streams(), 5, seeds)
        generator._accretive_dissipative(Streams(), 5, seeds)
        random_pd(GenConfig(5, 50, 3.0))
        random_accretive_dissipative(GenConfig(5, 51, 3.0))
        for info in REGISTRY.values():
            for n in (2, 5, 16):
                generate_inputs(info, n, seed=60 + n, m_fold=3)
        assert calls == [] and X1.shape == (1, 1)
        P = X[1]
        assert np.array_equal(P, P.conj().T)
        assert np.linalg.eigvalsh(P).min() > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
    def test_claimed_extremes_are_the_exact_pencil_extremes(self, n):
        # G and t rebuilt from the draw's streams give the exact X = G (I +
        # i diag(t)) G* at 30 digits: its pencil (Im X, Re X) has
        # eigenvalues t, so its extremes must be t's.  The stored X must
        # be that X to rounding: its own pencil's extremes lie within
        # (|dB| + |t| |dA|) / lambda_min(Re X) of them, for the forming
        # error (n + 2) eps ||G||_F^2 (1 + max|t|) of each part.
        # (A tilt that scaled G's rows, not its columns, misses this.)
        import mpmath

        from helpers import mp_matrix, mp_pencil_extremes

        seeds, alphas = [7000 + n, 7100 + n, 7200 + n], [0.3, 1.0, 1.4]
        X = generator._sectorial_draw(Streams(), n, seeds, [1.0] * 3, alphas)
        for k, (seed, alpha) in enumerate(zip(seeds, alphas)):
            G = random_ginibre(GenConfig(n, mix_seed(seed, generator._STREAM_SECT_BASE)))
            t = 2.0 * Streams().rng(mix_seed(seed, generator._STREAM_SECT_TILT)).random(n) - 1.0
            t *= math.tan(alpha) / np.max(np.abs(t))
            lo, hi = t.min(), t.max()
            with mpmath.workdps(30):
                Gm = mp_matrix(G)
                A, B = Gm * Gm.H, Gm * mpmath.diag([mpmath.mpf(float(v)) for v in t]) * Gm.H
                exact = mp_pencil_extremes(A, B)
                Xm = mp_matrix(X[k])
                stored = mp_pencil_extremes((Xm + Xm.H) / 2, (Xm - Xm.H) / mpmath.mpc(0, 2))
                lam_min = min(mpmath.re(v) for v in mpmath.eighe(A, eigvals_only=True))
            peak = max(-lo, hi)
            tol = 2.0 * (n + 2) * 2.0**-53 * np.linalg.norm(G) ** 2 * (1.0 + peak) ** 2 / float(lam_min)
            for got, want in zip(exact, (lo, hi)):
                assert abs(got - want) <= 1e-25 * (1.0 + peak), (k, got, want)
            for got, want in zip(stored, (lo, hi)):
                assert abs(got - want) <= tol, (k, got, want, tol)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            random_sectorial(GenConfig(2, 1), -0.1)
        with pytest.raises(ValueError):
            random_sectorial(GenConfig(2, 1), np.pi / 2)
        # True compares as 1, so it was drawn at alpha = 1.0.
        with pytest.raises(ValueError, match="alpha must lie in"):
            random_sectorial(GenConfig(2, 1), True)


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

    def test_numpy_random_is_imported_at_the_first_draw(self):
        # A Streams is built on a thread's first draw, so importing the
        # package and its CLI leaves numpy.random unimported.
        script = (
            "import sys\n"
            "import sector_radius, sector_radius.cli\n"
            "print('numpy.random' in sys.modules)\n"
            "sector_radius.random_ginibre(sector_radius.GenConfig(2, 1))\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]

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
                out.extend(random_pd(c).tobytes() for c in (cfg, GenConfig(cfg.n, offset - k)))
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
        # The suites draw a row's inputs as one stack of the private draws;
        # each lane must be the draw of its seed alone, bit for bit (the
        # exact sectorial draw's arguments lo and hi included).
        streams = Streams()
        seeds, scales = [900, 901, 902, 2**63 + 5], [1.0, 1e-8, 3.5, 1e8]
        alphas, phases = [0.3, 0.0, 1.4, 1.0], [0.2, 3.0, 5.5, 1.0]
        float_alphas = [0.3, 0.0, 1.4, math.pi / 2 - 1e-6]
        draws = {
            "ginibre": lambda k: generator._ginibre(streams, n, seeds[k], scales[k]),
            "pd": lambda k: generator._pd(streams, n, seeds[k]),
            "accretive_dissipative": lambda k: generator._accretive_dissipative(streams, n, seeds[k]),
            "sectorial_draw": lambda k: generator._sectorial_draw(streams, n, seeds[k], scales[k], float_alphas[k]),
            "exact_sectorial": lambda k: generator._exact_sectorial(streams, n, seeds[k], alphas[k]),
            "turned": lambda k: generator._exact_sectorial(streams, n, seeds[k], alphas[k], phases[k]),
        }
        for name, draw in draws.items():
            stack = draw(slice(None))
            for k in range(len(seeds)):
                single = draw(slice(k, k + 1))
                for part, one in zip(*(out if isinstance(out, tuple) else (out,) for out in (stack, single))):
                    assert len(part) == len(seeds) and len(one) == 1
                    assert part[k].tobytes() == one[0].tobytes(), (name, k)

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


# Fractional bits of each part of an exact draw's G, as the generator's
# module docstring derives them: the largest b with ceil(log2 n) + 10 +
# 2b + 20 <= 53.
G_BITS = {1: 11, 2: 11, 3: 10, 4: 10, 5: 10, 6: 10, 8: 10, 9: 9, 16: 9, 32: 9, 33: 8, 64: 8}
# Every exact draw is a multiple of 2^-UNIT: G of 2^-11, d of 2^-20.
UNIT = 2 * 11 + 20


def integer_parts(Z: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of Z times 2^bits as int64, asserting that they are integers."""
    re, im = Z.real * 2.0**bits, Z.imag * 2.0**bits
    assert (re == np.rint(re)).all() and (im == np.rint(im)).all()
    return re.astype(np.int64), im.astype(np.int64)


def rounded_ginibre(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """An exact draw's G rebuilt from random_ginibre: parts in units of 2^-11, rounded to G_BITS[n] bits and clipped below 4."""
    bits = G_BITS[n]
    G = random_ginibre(GenConfig(n, seed))
    top = 4 * 2**bits - 1
    parts = [np.clip(np.round(part * 2.0**bits), -top, top).astype(np.int64) << (11 - bits) for part in (G.real, G.imag)]
    return parts[0], parts[1]


def exact_congruence(G: tuple, d: tuple, shift: int = 0) -> list[list]:
    """G diag(d) G* + shift I as Fractions, for integer parts G in units of 2^-11 and d in units of 2^-20 (shift in units of 2^-UNIT).

    int64 holds every sum: an entry is below 2 * 64 * (2 * 2^13 * 2^23) * 2^13 = 2^57 units.
    """
    (gr, gi), (dr, di) = G, d
    ar, ai = gr * dr - gi * di, gr * di + gi * dr
    xr = ar @ gr.T + ai @ gi.T + shift * np.eye(len(gr), dtype=np.int64)
    xi = ai @ gr.T - ar @ gi.T
    return [[(Fraction(int(r), 2**UNIT), Fraction(int(i), 2**UNIT)) for r, i in zip(rr, ii)] for rr, ii in zip(xr, xi)]


def stored(X: np.ndarray, factor: float = 1.0) -> list[list]:
    """The stored matrix X / factor as Fractions, entry by entry."""
    return [[(Fraction(float(z.real)) / Fraction(factor), Fraction(float(z.imag)) / Fraction(factor)) for z in row] for row in X]


class TestExactDraws:
    # The positive definite, accretive-dissipative and suite sectorial draws
    # are formed without a rounding error: rebuilt from the same streams in
    # exact rational arithmetic, every entry must equal the stored one.
    DIMS = [2, 3, 4, 5, 6, 16, 32, 64]

    @pytest.mark.parametrize("n", DIMS)
    def test_budget_is_the_derived_one(self, n):
        assert generator._fraction_bits(n) == G_BITS[n]
        assert (n - 1).bit_length() + 10 + 2 * G_BITS[n] + 20 <= 53 < (n - 1).bit_length() + 10 + 2 * G_BITS[n] + 22

    @pytest.mark.parametrize("n", DIMS)
    def test_sectorial_draws_are_exact(self, n):
        seeds, alphas, phases = [3100 + n, 3200 + n, 3300 + n], [0.0, 0.9, 1.4], [0.3, 2.5, 5.9]
        for turned in (None, phases):
            X, lo, hi = generator._exact_sectorial(Streams(), n, seeds, alphas, turned)
            for k, (seed, alpha) in enumerate(zip(seeds, alphas)):
                t = 2.0 * Streams().rng(mix_seed(seed, generator._STREAM_SECT_TILT)).random(n) - 1.0
                t = np.round(t * (math.tan(alpha) / np.max(np.abs(t))) * 2.0**12).astype(np.int64)
                c, s = (256, 0) if turned is None else (round(math.cos(phases[k]) * 256), round(math.sin(phases[k]) * 256))
                d = (c * 4096 - s * t, s * 4096 + c * t)
                G = rounded_ginibre(n, mix_seed(seed, generator._STREAM_SECT_BASE))
                assert stored(X[k]) == exact_congruence(G, d), (turned, k)
                # The arguments of W(X) span arg(c + is) + arctan([min t, max t]).
                turn = math.atan2(s, c)
                for got, want in ((lo[k], turn + math.atan(t.min() / 4096)), (hi[k], turn + math.atan(t.max() / 4096))):
                    assert abs(got - want) <= 1e-15, (turned, k, got, want)

    @pytest.mark.parametrize("n", DIMS)
    def test_positive_definite_and_accretive_dissipative_draws_are_exact(self, n):
        # At scales 1 and 2^+-8 a public factory is its scale-1 draw times
        # scale^2, exactly; so is the suite's draw.
        shift = 2 ** (UNIT - 20)
        one = (np.full(n, 2**20, dtype=np.int64), np.zeros(n, dtype=np.int64))

        def pd(seed):
            return exact_congruence(rounded_ginibre(n, mix_seed(seed, generator._STREAM_PD)), one, shift)

        seeds = [4100 + n, 4200 + n]
        for scale in (1.0, 2.0**-8, 2.0**8):
            cfgs = [GenConfig(n, seed, scale) for seed in seeds]
            P, X = [random_pd(c) for c in cfgs], [random_accretive_dissipative(c) for c in cfgs]
            for k, seed in enumerate(seeds):
                assert stored(P[k], scale**2) == pd(seed)
                re = pd(mix_seed(seed, generator._STREAM_AD_RE))
                im = pd(mix_seed(seed, generator._STREAM_AD_IM))
                want = [[(a[0] - b[1], a[1] + b[0]) for a, b in zip(ra, rb)] for ra, rb in zip(re, im)]
                assert stored(X[k], scale**2) == want
        cfgs = [GenConfig(n, seed) for seed in seeds]
        assert np.array_equal(generator._pd(Streams(), n, seeds), [random_pd(c) for c in cfgs])
        assert np.array_equal(generator._accretive_dissipative(Streams(), n, seeds), [random_accretive_dissipative(c) for c in cfgs])

    def test_a_budget_that_cannot_hold_raises(self):
        # Past n = 2^23 no G keeps a fractional bit within the 53; the test
        # is made before anything is drawn, so nothing is allocated.
        n = 2**23 + 1
        assert generator._fraction_bits(2**23) == 0
        for draw in (
            lambda: random_pd(GenConfig(n, 1)),
            lambda: random_accretive_dissipative(GenConfig(n, 1)),
            lambda: generator._exact_sectorial(Streams(), n, [1], [0.5]),
        ):
            with pytest.raises(ValueError, match=r"no exact draw at n = 8388609: its products need n <= 2\^23"):
                draw()
        # A tilt above 7 would let |d_j| reach 2^3.
        generator._exact_sectorial(Streams(), 3, [1], [math.atan(6.99)])
        with pytest.raises(ValueError, match="no exact sectorial draw with a tilt above 7.0"):
            generator._exact_sectorial(Streams(), 3, [1, 2], [0.5, math.atan(7.01)])

    def test_blas_thread_count_leaves_every_draw_unchanged(self, tmp_path):
        # The draws are exact, so one and two BLAS threads give the same
        # bytes for every row at n = 64, claims included.
        import subprocess

        script = (
            "import hashlib, numpy as np\n"
            "from sector_radius.harness import REGISTRY, generate_inputs\n"
            "h = hashlib.sha256()\n"
            "for info in REGISTRY.values():\n"
            "    for seed in (1, 2):\n"
            "        inputs = generate_inputs(info, 64, seed)\n"
            "        for M in inputs:\n"
            "            h.update(M.tobytes())\n"
            "        for c in inputs.claims or ():\n"
            "            h.update(np.array([c.index_alpha, c.rotation_z.real, c.rotation_z.imag]).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1] and len(digests[0]) == 64
