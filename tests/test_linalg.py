import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sector_radius.linalg import (
    DimensionError,
    DomainError,
    block2x2,
    cartesian_decompose,
    frobenius,
    hadamard,
    herm_eig,
    is_hermitian,
    is_psd,
    matrix_from_obj,
    matrix_to_obj,
    pd_certificate,
    read_matrix,
    scaled_lambda_min,
    singular_values,
    unit_scaled,
    write_matrix,
)
from helpers import count_linalg_matrices, exact_positive_definite, random_complex, random_hermitian
from sector_radius.harness import check_inequality


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
    data = draw(st.lists(st.tuples(coord, coord), min_size=n * n, max_size=n * n))
    return np.array([complex(a, b) for a, b in data]).reshape(n, n)


class TestCartesianDecompose:
    def test_hermitian_fixed_point(self):
        H = np.array([[1.0, 2.0], [2.0, -3.0]], dtype=complex)
        re, im = cartesian_decompose(H)
        assert np.allclose(re, H)
        assert np.allclose(im, 0)

    def test_direct_evaluation(self):
        re, im = cartesian_decompose(np.array([[0, 2], [0, 0]], dtype=complex))
        assert np.allclose(re, [[0, 1], [1, 0]])
        assert np.allclose(im, [[0, -1j], [1j, 0]])

    def test_skew_case(self):
        K = np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex)
        re, im = cartesian_decompose(1j * K)
        assert np.allclose(re, 0)
        assert np.allclose(im, K)

    @settings(max_examples=30, deadline=None)
    @given(square_matrices())
    def test_reconstruction_and_hermitian_parts(self, X):
        re, im = cartesian_decompose(X)
        assert np.max(np.abs(re + 1j * im - X)) <= 1e-14 * (1 + np.max(np.abs(X)))
        assert np.max(np.abs(re - re.conj().T)) <= 1e-14 * (1 + np.max(np.abs(X)))
        assert np.max(np.abs(im - im.conj().T)) <= 1e-14 * (1 + np.max(np.abs(X)))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            cartesian_decompose(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match="at least 1x1"):
            cartesian_decompose(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            cartesian_decompose(np.array([[np.nan, 0], [0, 0]]))


class TestHadamard:
    def test_all_ones_identity(self):
        rng = np.random.default_rng(1)
        X = random_complex(rng, 3)
        assert np.array_equal(hadamard(X, np.ones((3, 3))), X)

    def test_identity_extracts_diagonal(self):
        rng = np.random.default_rng(2)
        X = random_complex(rng, 4)
        assert np.allclose(hadamard(np.eye(4), X), np.diag(np.diag(X)))

    def test_direct_evaluation(self):
        out = hadamard([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert np.array_equal(out, [[5, 12], [21, 32]])

    @settings(max_examples=30, deadline=None)
    @given(square_matrices(max_n=3), square_matrices(max_n=3))
    def test_commutative(self, X, Y):
        if X.shape != Y.shape:
            Y = np.resize(Y, X.shape)
        a, b = hadamard(X, Y), hadamard(Y, X)
        # complex multiply is commutative up to one ulp (FMA in the
        # imaginary part), not bitwise
        assert np.all(np.abs(a - b) <= 4e-16 * np.abs(a) + 1e-300)

    def test_bilinear(self):
        rng = np.random.default_rng(3)
        X, Y, Z = (random_complex(rng, 3) for _ in range(3))
        a, b = 1.7 - 0.3j, -2.2 + 1j
        lhs = hadamard(a * X + b * Y, Z)
        rhs = a * hadamard(X, Z) + b * hadamard(Y, Z)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hadamard(np.eye(2), np.eye(3))


class TestHermEig:
    def test_diagonal(self):
        res = herm_eig(np.diag([2.0, 1.0]))
        assert np.allclose(res.eigenvalues, [1.0, 2.0])

    def test_symmetric_flip(self):
        res = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(res.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_reconstruction_residual(self, n):
        rng = np.random.default_rng(10 + n)
        H = random_hermitian(rng, n, scale=3.0)
        res = herm_eig(H)
        scale = max(1.0, np.linalg.norm(H))
        resid = np.linalg.norm(H @ res.eigenvectors - res.eigenvectors * res.eigenvalues)
        assert resid <= 1e-10 * scale
        ortho = np.linalg.norm(res.eigenvectors.conj().T @ res.eigenvectors - np.eye(n))
        assert ortho <= 1e-10

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 7):
            H = random_hermitian(rng, n)
            res = herm_eig(H)
            assert abs(res.eigenvalues.sum() - np.trace(H).real) <= 1e-10 * max(1, np.linalg.norm(H))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        H = random_hermitian(rng, 6)
        r1, r2 = herm_eig(H), herm_eig(H.copy())
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestSingularValues:
    def test_unitary_gives_ones(self):
        theta = 0.7
        U = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.allclose(singular_values(U), [1.0, 1.0])

    def test_nilpotent(self):
        assert np.allclose(singular_values([[0, 1], [0, 0]]), [1.0, 0.0])

    def test_descending(self):
        rng = np.random.default_rng(8)
        s = singular_values(random_complex(rng, 6))
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_top_value_matches_power_iteration(self):
        rng = np.random.default_rng(9)
        X = random_complex(rng, 5)
        G = X.conj().T @ X
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        for _ in range(500):
            v = G @ v
            v /= np.linalg.norm(v)
        sigma_pi = np.sqrt(np.vdot(v, G @ v).real)
        assert abs(singular_values(X)[0] - sigma_pi) <= 1e-8 * sigma_pi

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        from sector_radius.generator import GenConfig, random_unitary

        X = random_complex(rng, 4)
        U = random_unitary(GenConfig(4, 1))
        V = random_unitary(GenConfig(4, 2))
        s1, s2 = singular_values(X), singular_values(U @ X @ V)
        assert np.max(np.abs(s1 - s2)) <= 1e-9 * max(1.0, s1[0])


class TestBlock2x2:
    def test_identity_assembly(self):
        I2 = np.eye(2)
        Z = np.zeros((2, 2))
        assert np.array_equal(block2x2(I2, Z, Z, I2), np.eye(4))

    def test_hermitian_when_symmetric_blocks(self):
        rng = np.random.default_rng(12)
        A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
        M = block2x2(A, B, B, A)
        assert np.allclose(M, M.conj().T)

    def test_doubled_pd_block_is_psd(self):
        rng = np.random.default_rng(13)
        G = random_complex(rng, 3)
        X = G @ G.conj().T + 0.1 * np.eye(3)
        M = block2x2(X, X, X, X)
        assert np.linalg.eigvalsh(M).min() >= -1e-12 * np.linalg.norm(M)

    def test_mismatched_blocks(self):
        with pytest.raises(DimensionError):
            block2x2(np.eye(2), np.eye(2), np.eye(2), np.eye(3))


class TestFrobenius:
    def test_bits_of_numpy_norm(self):
        # Real, complex, transposed (non-contiguous) and stacked inputs.
        rng = np.random.default_rng(1626)
        for n in (1, 2, 5, 16):
            Z = random_complex(rng, n, scale=10.0 ** rng.uniform(-200, 200))
            for M in (Z, Z.real, Z.T, Z.real.T, np.array([Z, 2 * Z])):
                assert frobenius(M) == float(np.linalg.norm(M)), (n, M)


class TestIsHermitian:
    @pytest.mark.parametrize("k", [600, -600, -1060])
    def test_far_scales_keep_the_verdict(self, k):
        # Both Frobenius norms of 2^k H underflow to 0 or overflow to inf
        # unless H is scaled first; unscaled, 0 <= 0 and inf <= inf would
        # call every matrix Hermitian.  Scaling a Hermitian H by 2^k rounds
        # h_ij and conj(h_ji) alike, so it stays exactly Hermitian.
        rng = np.random.default_rng(12)
        for n in (1, 3, 5):
            for _ in range(5):
                G = random_complex(rng, n)
                H = random_hermitian(rng, n)
                assert is_hermitian(math.ldexp(1.0, k) * H), (n, k)
                if n > 1:
                    assert not is_hermitian(math.ldexp(1.0, k) * G), (n, k)

    def test_zero_matrix_is_hermitian(self):
        assert is_hermitian(np.zeros((3, 3), dtype=complex))

    @pytest.mark.parametrize("k", [600, 0, -600])
    def test_error_states_the_relative_asymmetry_at_any_scale(self, k):
        # ||H - H*||_F / ||H||_F = 2 sqrt(2) / sqrt(6); unscaled, the
        # asymmetry itself underflows to 0 at 2^-600.
        H = math.ldexp(1.0, k) * np.array([[1.0, 2j], [0.0, 1.0]])
        with pytest.raises(DomainError, match=r"relative asymmetry .* = 1\.155e\+00 exceeds 1e-12"):
            herm_eig(H)


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_sector_block_at_index(self):
        from sector_radius.sectorial import tan_block

        X = np.diag([1 + 1j, 1 - 1j])
        assert is_psd(tan_block(X, np.pi / 4), tol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("k", [600, 0, -600])
    def test_tolerance_is_relative_at_any_scale(self, k):
        scale = math.ldexp(1.0, k)
        assert is_psd(scale * np.diag([1.0, -1e-11]), tol=1e-10)
        assert not is_psd(scale * np.diag([1.0, -1e-9]), tol=1e-10)
        assert not is_psd(scale * -np.eye(3), tol=1e-10)

    def test_small_negative_definite_rejected(self):
        # A tolerance of tol * max(1, ||H||_F) accepted this.
        assert not is_psd(-1e-20 * np.eye(3), tol=1e-10)
        assert is_psd(np.zeros((3, 3)), tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), tol=-1e-3)

    def test_nan_tol_rejected(self):
        # lambda_min >= -nan is False, so a NaN tolerance called every H indefinite.
        with pytest.raises(ValueError, match="tol must be nonnegative, got nan"):
            is_psd(np.eye(2), tol=math.nan)


def certificate_shift(n: int) -> float:
    """The shift of pd_certificate on its unit-diagonal matrix: 2 sqrt(2) gamma_{2n+1} n."""
    k, u = 2 * n + 1, 2.0**-53
    return 2.0 * math.sqrt(2.0) * k * u / (1.0 - k * u) * n


def near_singular_hermitian(rng: np.random.Generator, n: int, c: float) -> np.ndarray:
    """A Hermitian matrix whose unit-diagonal scaling has lambda_min within a few shifts c of 0.

    A unit-diagonal Gram matrix of full or deficient rank is shifted so that
    its lambda_min lands near t c, t uniform in [-4, 16], or left singular;
    some are then scaled by a diagonal congruence, by powers of two up to
    2^+-500 (exact) or over six decades (rounded).
    """
    rank = n if rng.random() < 0.7 else int(rng.integers(1, n))
    G = random_complex(rng, n)[:, :rank]
    M = G @ G.conj().T
    d = 1.0 / np.sqrt(M.diagonal().real)
    M = d[:, None] * M * d[None, :]
    M = (M + M.conj().T) / 2
    if rank == n or rng.random() < 0.5:
        M -= (np.linalg.eigvalsh(M)[0] - rng.uniform(-4.0, 16.0) * c) * np.eye(n)
    kind = rng.integers(3)
    if kind == 1:
        e = np.ldexp(1.0, rng.integers(-500, 501, n))
        M = e[:, None] * M * e[None, :]
    elif kind == 2:
        e = np.logspace(0.0, -6.0, n)
        M = e[:, None] * M * e[None, :]
        M = (M + M.conj().T) / 2
    return M


class TestPdCertificate:
    def test_no_false_certificate_against_exact_ldl(self):
        # Decided exactly in rational arithmetic: every certified matrix is
        # positive definite, and every matrix whose unit-diagonal scaling
        # (by the certificate's own d) has lambda_min above 10 shifts is
        # certified.  Near 0 either answer is allowed.
        rng = np.random.default_rng(20061)
        counts = {"passed": 0, "failed": 0}
        for n, trials in ((2, 700), (3, 700), (4, 500), (6, 350), (8, 200), (16, 40)):
            c = certificate_shift(n)
            Hs = np.array([near_singular_hermitian(rng, n, c) for _ in range(trials)])
            for H, ok in zip(Hs, pd_certificate(Hs)[0]):
                counts["passed" if ok else "failed"] += 1
                if ok:
                    assert exact_positive_definite(H), (n, H)
                else:
                    d = 1.0 / np.sqrt(np.where(H.diagonal().real > 0.0, H.diagonal().real, 1.0))
                    assert not exact_positive_definite(H, 10.0 * c, d), (n, H)
        assert min(counts.values()) > 400, counts

    @pytest.mark.parametrize("bad", [2, 4], ids=["middle", "last"])
    def test_stacked_lanes_equal_single_calls(self, bad):
        # A failing lane makes numpy's stacked cholesky raise; each lane is
        # then factored alone, and every lane keeps its own bits.
        rng = np.random.default_rng(7)
        Hs = np.array([random_hermitian(rng, 4) + 4.0 * np.eye(4) for _ in range(5)])
        Hs[bad] -= 8.0 * np.eye(4)
        passes, d, L = pd_certificate(Hs)
        assert passes.tolist() == [k != bad for k in range(5)]
        for H, ok, dk, Lk in zip(Hs, passes, d, L):
            one = pd_certificate(H)
            assert one[0] == ok and np.array_equal(one[1], dk) and np.array_equal(one[2], Lk, equal_nan=True)
        assert np.isnan(L[bad]).all()

    @pytest.mark.parametrize("bad", [0, 37, 63])
    def test_a_failing_stack_is_redone_one_lane_per_call(self, bad, monkeypatch):
        # 64 lanes, one indefinite: the whole stack, then one call per lane,
        # 1 + 64 calls.
        rng = np.random.default_rng(64)
        Hs = np.array([random_hermitian(rng, 3) + 3.0 * np.eye(3) for _ in range(64)])
        Hs[bad] -= 6.0 * np.eye(3)
        singles = [pd_certificate(H) for H in Hs]
        calls = count_linalg_matrices(monkeypatch, ("cholesky",))
        passes, _, L = pd_certificate(Hs)
        assert calls == [64] + [1] * 64
        assert passes.tolist() == [k != bad for k in range(64)]
        for ok, Lk, one in zip(passes, L, singles):
            assert one[0] == ok and np.array_equal(one[2], Lk, equal_nan=True)
        assert np.isnan(L[bad]).all()
        # A lone lane that fails is not factored again.
        calls.clear()
        assert not pd_certificate(Hs[bad])[0]
        assert calls == [1]

    def test_subnormal_diagonal_is_scaled_without_overflow(self):
        # d_i d_j overflows for a subnormal H_ii; every lane is scaled as
        # (d_i H_ij) d_j, so such a lane certifies a positive definite matrix
        # and raises no overflow warning (an error under the test settings),
        # while a lane beside it keeps the bits of a call of its own.
        H = np.diag([1e-310, 1.0]).astype(complex)
        passes, d, L = pd_certificate(H)
        assert passes and d[0] > 2.0**512 and np.isfinite(L).all()
        assert not pd_certificate(np.array([[1e-310, 1e-100], [1e-100, 1.0]], dtype=complex))[0]
        assert not pd_certificate(np.array([[1e-310, 1e200], [1e200, 1.0]], dtype=complex))[0]
        rng = np.random.default_rng(310)
        normal = random_hermitian(rng, 2) + 3.0 * np.eye(2)
        passes, d, L = pd_certificate(np.array([normal, H]))
        one = pd_certificate(normal)
        assert passes.tolist() == [True, True]
        assert np.array_equal(d[0], one[1]) and np.array_equal(L[0], one[2])
        # Sound: a lane with a subnormal diagonal entry is certified only when positive definite.
        e = np.ones(4)
        e[0] = 2.0**-520
        certified = 0
        for _ in range(200):
            M = near_singular_hermitian(rng, 4, certificate_shift(4))
            Hs = (e[:, None] * M) * e[None, :]
            Hs = (Hs + Hs.conj().T) / 2
            if pd_certificate(Hs)[0]:
                certified += 1
                assert exact_positive_definite(Hs), Hs
        assert certified > 50

    def test_subnormal_diagonal_input_is_positive_definite_to_a_check(self):
        r = check_inequality("L6_had_diag_norm", [np.eye(2), np.diag([1e-310, 1.0])])
        assert r.verdict != "inapplicable", r.note

    def test_overflowing_scaling_fails_without_a_warning(self):
        # D Y D has off-diagonal entries near 1e500: the lane fails, and
        # neither the certificate nor the check's note warns of the overflow
        # (an error under the test settings).
        Y = np.array([[1e-300, 1e200], [1e200, 1e-300]], dtype=complex)
        assert not pd_certificate(Y)[0]
        r = check_inequality("L6_had_diag_norm", [np.eye(2), Y])
        assert r.verdict == "inapplicable" and "not positive definite: lambda_min(D X D) = -inf " in r.note, r.note
        r = check_inequality("C_AD_prod2", [(1 + 1j) * np.eye(2), (1 + 1j) * Y])
        assert r.note == (
            "second input is not accretive-dissipative: lambda_min(D Re D) = -inf, "
            "lambda_min(D' Im D') = -inf (unit-diagonal scalings D, D')"
        )

    def test_extra_shift_per_lane(self):
        # Unit diagonal and lambda_min 0.5: certified below that extra, not above.
        H = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        passes = pd_certificate(np.array([H, H, H]), np.array([0.0, 0.49, 0.51]))[0]
        assert passes.tolist() == [True, True, False]

    @pytest.mark.parametrize("H", [np.diag([1.0, 0.0]), np.diag([1.0, -1e-300]), np.zeros((3, 3))])
    def test_nonpositive_diagonal_fails(self, H):
        assert not pd_certificate(H.astype(complex))[0]


class TestScaledLambdaMin:
    def test_finite_lanes_keep_the_bits_of_eigvalsh(self):
        rng = np.random.default_rng(7)
        H = np.array([random_hermitian(rng, 4) for _ in range(3)])
        d = 1.0 / np.sqrt(np.abs(H.diagonal(axis1=-2, axis2=-1).real) + 1.0)
        want = np.linalg.eigvalsh(unit_scaled(d, H))[:, 0]
        assert scaled_lambda_min(d, H).tobytes() == want.tobytes()
        assert scaled_lambda_min(d[1], H[1]) == want[1]

    def test_an_overflowing_lane_is_minus_infinity(self):
        # D Y D overflows in the second lane alone, and nothing warns.
        Y = np.array([[1e-300, 1e200], [1e200, 1e-300]], dtype=complex)
        H = np.array([np.diag([2.0, 1.0]), Y])
        d = 1.0 / np.sqrt(H.diagonal(axis1=-2, axis2=-1).real)
        lam = scaled_lambda_min(d, H)
        assert lam[1] == -np.inf and lam[0] == np.linalg.eigvalsh(unit_scaled(d[0], H[0]))[0]
        assert scaled_lambda_min(d[1:], H[1:]).tolist() == [-np.inf]


class TestMatrixIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        X = random_complex(rng, 5, scale=3.7)
        obj = json.loads(json.dumps(matrix_to_obj(X)))
        Y = matrix_from_obj(obj)
        assert np.array_equal(X, Y)
        path = tmp_path / "m.json"
        write_matrix(path, X)
        assert np.array_equal(read_matrix(path), X)

    def test_a_failing_write_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.eye(2))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            write_matrix(path, [[np.inf]])
        assert path.read_bytes() == before

    def test_schema_errors(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 2, "entries": [[0.0, 0.0]]})
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 0, "entries": []})
        with pytest.raises(ValueError):
            matrix_from_obj({"entries": []})
        with pytest.raises(ValueError):
            matrix_from_obj({"n": True, "entries": [[1.0, 0.0]]})
        for bad in ({"n": 1, "entries": [1.0]}, {"n": 1, "entries": [["a", 0]]},
                    {"n": 2, "entries": None}, {"n": 1, "entries": [[10**400, 0]]},
                    {"n": 1, "entries": [[True, False]]}, {"n": 1, "entries": [[1.0, True]]}):
            with pytest.raises(ValueError, match="entr"):
                matrix_from_obj(bad)
