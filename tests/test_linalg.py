import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sector_radius.linalg import (
    DimensionError,
    DomainError,
    block2x2,
    cartesian_decompose,
    hadamard,
    herm_eig,
    is_psd,
    matrix_from_obj,
    matrix_to_obj,
    read_matrix,
    singular_values,
    write_matrix,
)
from helpers import random_complex, random_hermitian


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

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), tol=-1e-3)


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
                    {"n": 2, "entries": None}, {"n": 1, "entries": [[10**400, 0]]}):
            with pytest.raises(ValueError, match="entr"):
                matrix_from_obj(bad)
