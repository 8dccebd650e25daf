import hashlib
import math

import numpy as np
import pytest

from sector_radius import sectorial
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

from helpers import count_linalg_matrices, mp_sector_index

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


def tries_bound(alpha: float) -> int:
    """Most gate tries of the rotation search for class index alpha < pi/2.

    A rejected try widens the known arc K of arguments to at least
    |K|/2 + pi/2, and |K| <= 2 alpha.
    """
    return math.ceil(math.log2(math.pi / (math.pi - 2.0 * alpha))) + 1


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
        from sector_radius.harness import Hypothesis, _check_hypothesis

        X = narrow_arc(k)
        assert rotation_to_sector(X).index_alpha == pytest.approx(1.569, abs=1e-9)
        (info,), _ = _check_hypothesis(Hypothesis.SECTORIAL, [X], 1)
        assert info.index_alpha == pytest.approx(1.569, abs=1e-7)

    def test_hermitian_eigensolver_budget(self, monkeypatch):
        # rotation_to_sector: one Cholesky gate matrix per try, at most
        # tries(alpha), one eigenvector matrix per rejected try, and one
        # inverse and one eigenvalue matrix for the arg extremes.
        # sector_index gets the unrotated, accretive input: one gate matrix,
        # one inverse and one eigenvalue matrix.  Neither makes a
        # non-Hermitian eigensolve or a solve.
        gate = count_linalg_matrices(monkeypatch, ("cholesky",))
        vectors = count_linalg_matrices(monkeypatch, ("eigh",))
        index = count_linalg_matrices(monkeypatch, ("inv", "eigvalsh"))
        others = count_linalg_matrices(monkeypatch, ("eig", "eigvals", "solve"))
        calls = [(rotation_to_sector, narrow_arc(k)) for k in range(3)]
        for n in range(2, 7):
            for seed in range(3):
                X = random_sectorial(GenConfig(n, 300 + seed), 0.4 * (seed + 1))
                calls += [(rotation_to_sector, np.exp(2.0j * seed) * X), (sector_index, X)]
        for k, (fn, X) in enumerate(calls):
            for counts in (gate, vectors, index, others):
                counts.clear()
            info = fn(X)
            tries = tries_bound(info.index_alpha) if fn is rotation_to_sector else 1
            assert sum(gate) <= tries and sum(vectors) <= tries - 1, (fn.__name__, k, gate, vectors)
            assert (index, others) == ([1, 1], []), (fn.__name__, k, index, others)

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


def gate_tries(monkeypatch) -> list[int]:
    """Record the matrices of every pd_certificate gate call that the rotation search makes."""
    tries: list[int] = []
    original = sectorial.pd_certificate

    def counted(A):
        tries.append(len(A))
        return original(A)

    monkeypatch.setattr(sectorial, "pd_certificate", counted)
    return tries


class TestRotationSearch:
    @staticmethod
    def near_half_pi(gap: float, n: int, seed: int) -> np.ndarray:
        X = random_sectorial(GenConfig(n, 1000 + seed), math.pi / 2 - gap)
        return np.exp(1j * (0.3 + seed)) * X

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7])
    def test_tries_within_bound_near_half_pi(self, monkeypatch, gap, n):
        tries = gate_tries(monkeypatch)
        for seed in range(3):
            X = self.near_half_pi(gap, n, seed)
            tries.clear()
            info = rotation_to_sector(X)
            assert len(tries) <= tries_bound(info.index_alpha), (seed, tries)
            assert info.index_alpha == pytest.approx(mp_sector_index(info.rotation_z * X), abs=1e-12)

    def test_tries_within_bound_on_narrow_arcs(self, monkeypatch):
        # Index 1.569: a bound of 11 tries; the search takes 3 or 4.
        tries = gate_tries(monkeypatch)
        for k in range(6):
            X = narrow_arc(k)
            tries.clear()
            info = rotation_to_sector(X)
            assert 1 < len(tries) <= tries_bound(info.index_alpha), (k, tries)
            assert info.index_alpha == pytest.approx(mp_sector_index(info.rotation_z * X), abs=1e-12)

    @pytest.mark.parametrize(
        "X",
        [
            np.diag([1.0, -1.0]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.exp(0.5j) * np.diag([1.0, 1j, -1.0]),
            np.diag([1.0, 1.0, 0.0]),
            np.array([[1.0, 2.0], [0.0, 1.0]]),  # 0 on the boundary of W, hit by the first eigenvector
        ],
        ids=["diag(1,-1)", "volterra", "straddling", "diag(1,1,0)", "boundary-disk"],
    )
    def test_zero_in_numerical_range_raises(self, X):
        with pytest.raises(NotSectorialError, match="0 lies in W"):
            rotation_to_sector(X)


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
        # True compares as 1, so it was taken as alpha = 1.0.
        for block in (tan_block, sec_block):
            for alpha in (True, np.bool_(True)):
                with pytest.raises(ValueError, match="alpha must lie in"):
                    block(np.eye(2), alpha)

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


def info_bits(info) -> tuple[str, str, str]:
    return info.index_alpha.hex(), info.rotation_z.real.hex(), info.rotation_z.imag.hex()


def accretive_family(n: int, seed: int) -> list[np.ndarray]:
    """Accretive inputs, with the hostile families: a diagonal congruence
    diag(1 ... 1e-6), scales 1e+-8 and an index pi/2 - 1e-6."""
    D = np.diag(np.logspace(0.0, -6.0, n))
    X = random_sectorial(GenConfig(n, seed), 0.9)
    edge = random_sectorial(GenConfig(n, seed + 1), math.pi / 2 - 1e-6)
    return [X, D @ X @ D, 1e8 * X, 1e-8 * X, edge, random_pd(GenConfig(n, seed + 2))]


def rotated_family(n: int, seed: int) -> list[np.ndarray]:
    return [np.exp(1j * (seed + k)) * X for k, X in enumerate(accretive_family(n, seed))]


def raised(fn, X) -> tuple[type, str]:
    with pytest.raises(ValueError) as exc:
        fn(X)
    return type(exc.value), str(exc.value)


class TestLockstepGates:
    def test_hostile_families_are_pinned_in_any_memory_order(self):
        # Each search copies its input into a contiguous stack of one, so a
        # Fortran-ordered copy or a transposed view of the same matrix gives
        # the same bits; the digest pins those bits at n = 1..8.
        digest = hashlib.sha256()
        for n in range(1, 9):
            for fn, family in ((rotation_to_sector, rotated_family), (sector_index, accretive_family)):
                for X in family(n, 500 + n):
                    bits = info_bits(fn(X))
                    assert info_bits(fn(np.asfortranarray(X))) == bits
                    assert info_bits(fn(np.ascontiguousarray(X.T).T)) == bits
                    digest.update(" ".join(bits).encode())
        assert digest.hexdigest() == "d91ae0b8b81548c4af364f3ec2f20fa92a7f3cc3de598e4f428e5099e93a211d"

    @pytest.mark.parametrize(
        "fn, edge_angle", [(rotation_to_sector, math.pi - 1e-11), (sector_index, math.pi / 2 - 1e-11)],
        ids=["rotation_to_sector", "sector_index"],
    )
    def test_first_failing_matrix_raises_its_own_error(self, fn, edge_angle):
        # The singular matrix fails the search's first check: its zero
        # diagonal entry, or the gate for sector_index.  The straddling one
        # fails the check of the diagonal's arc, or the gate.
        singular = np.diag([1.0, 1.0, 0.0]).astype(complex)
        straddling = np.exp(0.5j) * np.diag([1.0, 1j, -1.0])  # 0 lies on an edge of W
        if fn is sector_index:
            assert "not accretive" in raised(fn, singular)[1] and "not accretive" in raised(fn, straddling)[1]
        else:
            assert raised(fn, singular)[1] == "not sectorial: X has a zero diagonal entry, so 0 lies in W(X)"
            assert "span an arc of arguments" in raised(fn, straddling)[1]
        # An index within 1e-10 of pi/2 fails the gate for sector_index, and
        # for rotation_to_sector the check of the diagonal's arc.
        edge = np.diag([1.0, 1.0, np.exp(1j * edge_angle)])
        assert "within 1e-10 of pi/2" in raised(fn, edge)[1]

    @pytest.mark.filterwarnings("error")
    def test_subnormal_diagonal_is_scaled_without_overflow(self):
        # d_i d_j overflows with a subnormal diagonal entry; the search
        # scales Im X as (d_i B_ij) d_j, so the index is exact and nothing
        # warns.
        from sector_radius.harness import check_inequality

        X = np.diag([1e-310, 1.0]) + 1j * np.diag([1e-311, 0.5])
        assert abs(sector_index(X).index_alpha - math.atan(0.5)) <= 1e-12
        info = rotation_to_sector(X)
        assert abs(info.index_alpha - (math.atan(0.5) - math.atan(0.1)) / 2.0) <= 1e-12
        assert math.isfinite(info.rotation_z.real) and math.isfinite(info.rotation_z.imag)
        assert abs(abs(info.rotation_z) - 1.0) <= 1e-15
        assert check_inequality("L1_norm_sec", [X]).verdict != "inapplicable"

    def test_overflowing_scaling_raises_without_a_warning(self):
        # D Re X D has off-diagonal entries near 1e500: the gate fails, and
        # neither it nor the error's lambda_min warns of the overflow (an
        # error under the test settings); the error bounds lambda_min by -inf.
        Y = np.array([[1e-300, 1e200], [1e200, 1e-300]]) + 0.5j * np.eye(2)
        with pytest.raises(DomainError, match=r"not accretive: lambda_min\(D Re X D\) = -inf,"):
            sector_index(Y)

    @pytest.mark.parametrize("fn", [rotation_to_sector, sector_index], ids=["rotation_to_sector", "sector_index"])
    def test_a_lane_failing_the_gate_raises_its_own_error(self, fn):
        # A Hermitian matrix with a positive diagonal and lambda_min(D X D) =
        # -1e-3 fails the gate: sector_index names its lambda_min, and
        # rotation_to_sector finds 0 in W(X).
        bad = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
        bad[0, 1] = bad[1, 0] = 1.001
        assert ("lambda_min(D Re X D) = -1.000000e-03" if fn is sector_index else "0 lies in W") in raised(fn, bad)[1]


class TestOverflowingImaginaryPart:
    # D Re X D = I, but D Im X D has off-diagonal entries 1e400: W(X) holds
    # 1e-200 (1 +- 1e400 i) up to scaling, whose arguments are within 1e-400
    # of +-pi/2.
    X = 1e-200 * np.eye(2) + 1e200j * np.array([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [rotation_to_sector, sector_index], ids=["rotation_to_sector", "sector_index"])
    def test_search_raises_not_sectorial(self, fn):
        with pytest.raises(NotSectorialError, match="sector index is within 1e-10 of pi/2: D Im"):
            fn(self.X)

    @pytest.mark.filterwarnings("error")
    def test_a_failed_try_with_an_overflowing_imaginary_part_stops_the_search(self, monkeypatch):
        # The first try fails the gate with D Im(zX) D past the largest
        # double: W(X) then spans an arc within far less than 1e-10 of pi,
        # so the search stops at that try.
        gates = count_linalg_matrices(monkeypatch, ("cholesky",))
        X = 1e-200 * np.diag([1.0, np.exp(1.4j)]) + np.array([[0.0, 1e200], [1e200 * np.exp(0.3j), 0.0]])
        with pytest.raises(NotSectorialError, match="sector index is within 1e-10 of pi/2: D Im"):
            rotation_to_sector(X)
        assert gates == [1]

    def test_a_nan_index_is_refused(self):
        with pytest.raises(NotSectorialError, match="sector index nan is within 1e-10 of pi/2"):
            sectorial._boundary_check(math.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "ineq, second", [("P3_sec", None), ("T_onetan_min", np.eye(2))], ids=["P3_sec", "T_onetan_min"]
    )
    def test_notes_name_the_search_error(self, ineq, second):
        from sector_radius.harness import check_inequality

        r = check_inequality(ineq, [self.X] if second is None else [self.X, second], TRACE)
        assert r.verdict == "inapplicable"
        assert r.note.startswith("first input: input is not ") and "D Im(zX) D is not finite" in r.note, r.note
        assert "nan" not in r.note


class TestHypothesisNotes:
    # Each note names the first failing input.
    VOLTERRA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    NOTES = [
        # V has zero diagonal entries; the diagonal entries of G alone span
        # more than pi.
        ("II_prod_sec", {1: "V"}, "second input: input is not sectorial: not sectorial: X has a zero "
         "diagonal entry, so 0 lies in W(X)"),
        ("II_prod_sec", {0: "G", 1: "V"}, "first input: input is not sectorial: not sectorial: points of W(X) "
         "span an arc of arguments 3.851370177708 >= pi, so 0 lies in W(X)"),
        ("C_mprod", {1: "G", 2: "V"}, "input 1: input is not sectorial: not sectorial: points of W(X) span an "
         "arc of arguments 3.851370177708 >= pi, so 0 lies in W(X)"),
        ("C_mprod", {2: "V"}, "input 2: input is not sectorial: not sectorial: X has a zero diagonal entry, "
         "so 0 lies in W(X)"),
        ("T_onetan_min", {1: "G"}, "second input: input is not accretive sectorial: matrix is not accretive: "
         "lambda_min(D Re X D) = -2.107680e-01, D = diag(Re X)^(-1/2), is not positive "
         "(shifted Cholesky test)"),
        ("C_onetan", {0: "V", 1: "G"}, "first input: input is not accretive sectorial: matrix is not "
         "accretive: lambda_min(D Re X D) = -5.000000e-01, D = diag(Re X)^(-1/2), is not positive "
         "(shifted Cholesky test)"),
        ("C_AD_m", {1: "V", 2: "G"}, "input 1 is not accretive-dissipative: lambda_min(D Re D) = -5.000e-01, "
         "lambda_min(D' Im D') = -5.000e-01 (unit-diagonal scalings D, D')"),
        ("C_AD_diag_min2", {1: "G"}, "second input is not accretive-dissipative: lambda_min(D Re D) = "
         "-2.108e-01, lambda_min(D' Im D') = -3.332e-01 (unit-diagonal scalings D, D')"),
        # E passes rotation_to_sector, but its inflated index reaches pi/2
        # before the later, singular input is ever gated.
        ("II_prod_sec", {0: "E", 1: "V"}, "inflated sector index 1.570796334795 reaches pi/2"),
        ("C_mprod", {1: "E", 2: "V"}, "inflated sector index 1.570796334795 reaches pi/2"),
    ]

    @pytest.mark.parametrize("ineq, bad, note", NOTES, ids=[i + "-" + "".join(f"{k}{v}" for k, v in b.items()) for i, b, _ in NOTES])
    def test_note_is_unchanged(self, ineq, bad, note):
        from sector_radius.generator import random_ginibre
        from sector_radius.harness import REGISTRY, check_inequality, generate_inputs

        fixtures = {
            "V": self.VOLTERRA,
            "G": random_ginibre(GenConfig(2, 0)),
            "E": np.diag([1.0, np.exp(1j * (math.pi - 4e-9))]),
        }
        mats = generate_inputs(REGISTRY[ineq], 2, seed=5, m_fold=3)
        for k, name in bad.items():
            mats[k] = fixtures[name]
        r = check_inequality(ineq, mats, TRACE)
        assert (r.verdict, r.note) == ("inapplicable", note)
