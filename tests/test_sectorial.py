import math

import numpy as np
import pytest

from sector_radius.generator import GenConfig, random_pd, random_sectorial, random_unitary
from sector_radius.linalg import DomainError, is_psd
from sector_radius.norms import FROBENIUS, OPERATOR, TRACE, evaluate_norm, schatten
from sector_radius.radius import omega_n
from sector_radius.sectorial import (
    NotSectorialError,
    rotation_to_sector,
    sec_block,
    sector_index,
    tan_block,
)

from helpers import count_hermitian_eig_matrices, mp_sector_index

ALL_NORMS = (OPERATOR, TRACE, FROBENIUS, schatten(3))


def dense_boundary_arg_extreme(X, samples=100000):
    """Brute-force |arg| maximum over dense support-point sampling."""
    from sector_radius.radius import _support_points

    thetas = 2 * np.pi * np.arange(samples) / samples
    return float(np.max(np.abs(np.angle(_support_points(X, thetas)))))


class TestSectorIndex:
    def test_positive_definite_is_zero(self):
        P = random_pd(GenConfig(4, 3))
        assert sector_index(P).index_alpha <= 1e-9

    def test_segment_pi_over_6(self):
        X = np.diag([1.0, np.exp(1j * np.pi / 6)])
        info = sector_index(X)
        oracle = dense_boundary_arg_extreme(X, 20000)
        assert info.index_alpha == pytest.approx(np.pi / 6, abs=1e-9)
        assert info.index_alpha == pytest.approx(oracle, abs=1e-8)

    def test_accretive_dissipative_pi_over_4(self):
        info = sector_index(np.diag([1 + 1j, 1 - 1j]))
        assert info.index_alpha == pytest.approx(np.pi / 4, abs=1e-9)

    def test_rotation_witness_is_identity(self):
        P = random_pd(GenConfig(3, 5))
        info = sector_index(P)
        assert info.rotation_z == 1.0 + 0.0j

    def test_positive_scaling_invariance(self):
        X = random_sectorial(GenConfig(4, 11), 0.8)
        a = sector_index(X).index_alpha
        for c in (0.1, 3.0, 250.0):
            assert sector_index(c * X).index_alpha == pytest.approx(a, abs=1e-9)

    def test_sampled_points_inside_reported_sector(self):
        X = random_sectorial(GenConfig(5, 21), 1.1)
        info = sector_index(X)
        oracle = dense_boundary_arg_extreme(X, 5000)
        assert oracle <= info.index_alpha + 1e-9

    def test_not_accretive_error_names_lambda_min(self):
        with pytest.raises(DomainError, match="lambda_min"):
            sector_index(np.diag([1.0, -1.0]))

    def test_near_boundary_rejected(self):
        X = np.diag([1.0, np.exp(1j * (np.pi / 2 - 1e-11))])
        with pytest.raises(NotSectorialError):
            sector_index(X)


class TestExactIndex:
    @pytest.mark.parametrize("alpha", [1.5, 1.565])
    def test_matches_mpmath_near_half_pi(self, alpha):
        for n, seed in ((2, 31), (4, 32), (6, 33)):
            X = random_sectorial(GenConfig(n, seed), alpha)
            ref = mp_sector_index(X)
            assert sector_index(X).index_alpha == pytest.approx(ref, abs=1e-13)
            assert ref == pytest.approx(alpha, abs=1e-12)

    def test_gate_is_invariant_under_diagonal_congruence(self):
        # lambda_min(Re X) is about 1e-13 here, below 1e-12 ||X||_F, yet X is
        # a diagonal congruence of an accretive matrix.
        D = np.diag([1.0, 1e-3, 1e-6])
        for seed in (200, 201, 202):
            X = D @ random_sectorial(GenConfig(3, seed), 1.2) @ D
            assert sector_index(X).index_alpha == pytest.approx(mp_sector_index(X), abs=1e-9)

    def test_badly_scaled_congruence(self):
        # D (U Y U*) D spreads Re X over ten decades; a diagonal congruence
        # leaves the index of Y unchanged.
        D = np.diag([1.0, 1e-3, 1e-5])
        for seed in (41, 42, 43):
            U = random_unitary(GenConfig(3, seed))
            Y = U @ random_sectorial(GenConfig(3, seed + 10), 1.2) @ U.conj().T
            X = D @ Y @ D
            ref = mp_sector_index(X)
            assert sector_index(X).index_alpha == pytest.approx(ref, abs=1e-13)
            assert ref == pytest.approx(1.2, abs=1e-10)

    def test_narrow_vertex_is_not_missed(self):
        # A normal matrix whose largest-argument eigenvalue sits on a vertex
        # with a 2e-4 wide normal cone, far below any support-angle sweep step.
        r = np.exp(1j * 1.0)
        lam = np.array([1.0, r, (2.0 + 1e-4j) * r, 3.0 * r])
        U = random_unitary(GenConfig(4, 5))
        X = U @ np.diag(lam) @ U.conj().T
        exact = float(np.angle(lam[2]))
        assert mp_sector_index(X) == pytest.approx(exact, abs=1e-13)
        assert sector_index(X).index_alpha == pytest.approx(exact, abs=1e-13)
        assert rotation_to_sector(X).index_alpha == pytest.approx(exact / 2, abs=1e-13)


def narrow_arc(k: int) -> np.ndarray:
    """Rotated *congruence of a diagonal unitary with angles +-1.569 and a
    spread in between: its accretive rotations form an arc of width 3.6e-3."""
    n = 3 + k % 3
    U = random_unitary(GenConfig(n, 70 + k))
    S = np.diag(np.linspace(1.0, 3.0, n))
    angles = np.concatenate([[1.569, -1.569], np.linspace(-1.0, 1.0, n - 2)])
    return np.exp(1j * (0.1 + 0.5 * k)) * U @ S @ np.diag(np.exp(1j * angles)) @ S @ U.conj().T


class TestRotationToSector:
    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_narrow_accretive_arc_is_found(self, k):
        # An accretive arc of width 3.6e-3 slips between the angles of any
        # rotation scan coarser than that; the checks must find it too.
        from sector_radius.harness import _class_info

        X = narrow_arc(k)
        assert rotation_to_sector(X).index_alpha == pytest.approx(1.569, abs=1e-9)
        assert _class_info(X, "first input").index_alpha == pytest.approx(1.569, abs=1e-7)

    def test_hermitian_eigensolver_budget(self, monkeypatch):
        # One matrix for the accretivity gate and one for the arg extremes;
        # sector_index gets the unrotated, accretive input.
        counts = count_hermitian_eig_matrices(monkeypatch)
        for n in range(2, 7):
            for seed in range(3):
                X = random_sectorial(GenConfig(n, 300 + seed), 0.4 * (seed + 1))
                for fn, Y in ((rotation_to_sector, np.exp(2.0j * seed) * X), (sector_index, X)):
                    counts.clear()
                    fn(Y)
                    assert len(counts) <= 2 and sum(counts) <= 2, (fn.__name__, n, seed, counts)

    def test_rotated_positive_definite(self):
        P = random_pd(GenConfig(3, 8))
        info = rotation_to_sector(1j * P)
        assert abs(info.rotation_z - (-1j)) <= 1e-6
        assert info.index_alpha <= 1e-9

    def test_plain_positive_definite(self):
        P = random_pd(GenConfig(3, 9))
        info = rotation_to_sector(P)
        assert abs(info.rotation_z - 1.0) <= 1e-6
        assert info.index_alpha <= 1e-9

    def test_rotated_segment(self):
        X = np.diag([np.exp(1j * np.pi / 3), np.exp(2j * np.pi / 3)])
        info = rotation_to_sector(X)
        assert info.index_alpha == pytest.approx(np.pi / 6, abs=1e-9)
        assert abs(info.rotation_z - np.exp(-1j * np.pi / 2)) <= 1e-6

    def test_unit_modulus_witness(self):
        X = np.exp(0.7j) * random_sectorial(GenConfig(4, 10), 0.9)
        info = rotation_to_sector(X)
        assert abs(abs(info.rotation_z) - 1.0) <= 1e-14

    def test_class_index_rotation_invariant(self):
        X = random_sectorial(GenConfig(3, 12), 1.2)
        base = rotation_to_sector(X).index_alpha
        for phi in (0.5, 2.0, 4.4):
            got = rotation_to_sector(np.exp(1j * phi) * X).index_alpha
            assert got == pytest.approx(base, abs=1e-9)

    def test_class_index_below_accretive_index(self):
        X = random_sectorial(GenConfig(4, 13), 1.0)
        assert rotation_to_sector(X).index_alpha <= sector_index(X).index_alpha + 1e-9

    def test_witnessed_rotation_is_accretive_with_reported_index(self):
        X = np.exp(1.9j) * random_sectorial(GenConfig(4, 14), 0.7)
        info = rotation_to_sector(X)
        zX = info.rotation_z * X
        back = sector_index(zX)
        assert back.index_alpha <= info.index_alpha + 1e-8

    def test_not_sectorial_raises(self):
        with pytest.raises(NotSectorialError):
            rotation_to_sector(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(NotSectorialError):
            rotation_to_sector(np.diag([1.0, -1.0]).astype(complex))


class TestSectorBlocks:
    def test_tan_block_psd_inside_sector(self):
        X = random_sectorial(GenConfig(4, 15), 0.6)
        info = sector_index(X)
        assert is_psd(tan_block(X, info.index_alpha + 1e-8), tol=1e-9)

    def test_sec_block_psd_inside_sector(self):
        X = random_sectorial(GenConfig(4, 16), 1.0)
        info = sector_index(X)
        assert is_psd(sec_block(X, info.index_alpha + 1e-8), tol=1e-9)

    def test_hermitian_pd_alpha_zero(self):
        P = random_pd(GenConfig(3, 17))
        assert np.allclose(tan_block(P, 0.0)[:3, 3:], 0.0, atol=1e-14)
        assert is_psd(tan_block(P, 0.0), tol=1e-12)
        assert is_psd(sec_block(P, 0.0), tol=1e-12)

    def test_blocks_fail_below_index(self):
        X = np.diag([1 + 1j, 1 - 1j])
        alpha = np.pi / 4 - 0.01
        assert np.linalg.eigvalsh(tan_block(X, alpha)).min() < -1e-4
        assert np.linalg.eigvalsh(sec_block(X, alpha)).min() < -1e-4

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            tan_block(np.eye(2), -0.1)
        with pytest.raises(ValueError):
            sec_block(np.eye(2), np.pi / 2)

    def test_blocks_at_witnessed_class_index(self):
        X = np.exp(0.4j) * random_sectorial(GenConfig(3, 18), 0.9)
        info = rotation_to_sector(X)
        zX = info.rotation_z * X
        assert is_psd(tan_block(zX, info.index_alpha + 1e-8), tol=1e-9)
        assert is_psd(sec_block(zX, info.index_alpha + 1e-8), tol=1e-9)


class TestRadiusSectorProperties:
    def test_imaginary_part_tan_bound(self):
        X = random_sectorial(GenConfig(4, 19), 0.8)
        a = sector_index(X).index_alpha + 1e-8
        re = (X + X.conj().T) / 2
        im = (X - X.conj().T) / 2j
        for spec in ALL_NORMS:
            ei, er = omega_n(spec, im), omega_n(spec, re)
            assert ei.value <= math.tan(a) * (er.value + er.cert_error) + ei.cert_error + 1e-10

    def test_sec_bound_on_radius(self):
        X = random_sectorial(GenConfig(4, 20), 1.1)
        a = sector_index(X).index_alpha + 1e-8
        re = (X + X.conj().T) / 2
        for spec in ALL_NORMS:
            ex, er = omega_n(spec, X), omega_n(spec, re)
            assert ex.value <= (1 / math.cos(a)) * (er.value + er.cert_error) + ex.cert_error + 1e-10

    def test_norm_sec_bound(self):
        X = random_sectorial(GenConfig(5, 22), 1.3)
        a = sector_index(X).index_alpha + 1e-8
        re = (X + X.conj().T) / 2
        for spec in ALL_NORMS:
            lhs = evaluate_norm(spec, X)
            rhs = (1 / math.cos(a)) * evaluate_norm(spec, re)
            assert lhs <= rhs * (1 + 1e-9)
