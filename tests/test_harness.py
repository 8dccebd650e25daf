import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sector_radius.generator import (
    GenConfig,
    accretive_dissipative_stack,
    ginibre_stack,
    pd_stack,
    random_accretive_dissipative,
    random_ginibre,
    random_pd,
    random_sectorial,
    random_unitary,
    sectorial_stack,
)
from sector_radius import harness, radius
from sector_radius.harness import (
    DEFAULT_CONTEXT,
    CheckContext,
    InequalityId,
    DEFAULT_NORMS,
    REGISTRY,
    Hypothesis,
    Inapplicable,
    _check_hypothesis,
    _norm_iv,
    _verified,
    all_ids,
    check_inequality,
    explain,
    generate_inputs,
    run_suite,
    tightness_scan,
)
from sector_radius.linalg import LAPACK_BACKWARD, DimensionError, block2x2, cartesian_decompose
from sector_radius.norms import FROBENIUS, OPERATOR, TRACE, hermitian_norm, schatten
from sector_radius.report import Interval, classify
from sector_radius.sectorial import rotation_to_sector, sec_block, sector_index, tan_block
from helpers import mp_schatten_norm

VOLTERRA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ALL_NORMS = (OPERATOR, TRACE, FROBENIUS, schatten(3))


class TestCheckInequality:
    def test_b_prod4_equality_fixture(self):
        r = check_inequality("B_prod4", [VOLTERRA, VOLTERRA.T], OPERATOR)
        assert r.verdict == "tolerance_pass"
        assert r.ratio == pytest.approx(1.0, abs=1e-9)

    def test_c_ad_prod2_certified_on_accretive_dissipative(self):
        X = random_accretive_dissipative(GenConfig(3, 4))
        Y = random_accretive_dissipative(GenConfig(3, 5))
        r = check_inequality("C_AD_prod2", [X, Y], FROBENIUS)
        assert r.verdict == "certified_pass"

    def test_c_ad_prod2_inapplicable_without_hypothesis(self):
        X = random_ginibre(GenConfig(3, 6))
        Y = random_accretive_dissipative(GenConfig(3, 7))
        r = check_inequality("C_AD_prod2", [X, Y], FROBENIUS)
        assert r.verdict == "inapplicable"
        assert "accretive-dissipative" in r.note

    def test_h2_with_hermitian_factor(self):
        X = random_ginibre(GenConfig(3, 8))
        G = random_ginibre(GenConfig(3, 9))
        Y = (G + G.conj().T) / 2
        r = check_inequality("H2_hermitian_had", [X, Y], TRACE)
        assert r.verdict in ("certified_pass", "tolerance_pass")

    def test_h2_inapplicable_when_neither_hermitian(self):
        X = random_ginibre(GenConfig(3, 10))
        Y = random_ginibre(GenConfig(3, 11))
        r = check_inequality("H2_hermitian_had", [X, Y], TRACE)
        assert r.verdict == "inapplicable"

    def test_l7_with_identity_second_factor(self):
        X = random_ginibre(GenConfig(4, 12))
        r = check_inequality("L7_had_diag_omega", [X, np.eye(4, dtype=complex)], FROBENIUS)
        assert r.verdict in ("certified_pass", "tolerance_pass")

    @pytest.mark.parametrize("ineq", ["L6_had_diag_norm", "L7_had_diag_omega"])
    def test_pd_second_accepts_diagonally_scaled_pd(self, ineq):
        # D P D is positive definite for every positive diagonal D, though
        # its lambda_min falls below 1e-12 ||D P D||_F for most draws.
        D = np.diag([1.0, 1e-3, 1e-6])
        for s in range(200, 210):
            P = D @ random_pd(GenConfig(3, s)) @ D
            r = check_inequality(ineq, [random_ginibre(GenConfig(3, s + 1)), P])
            assert r.verdict == "certified_pass", (s, r.note)

    def test_i_diag_psd_counterfixture_certified_fail(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        J = np.ones((2, 2), dtype=complex)
        r = check_inequality("I_diag_psd", [A, J])
        assert r.verdict == "certified_fail"
        assert "hypothesis violated" in r.note

    def test_i_diag_psd_passes_with_psd_factor(self):
        A = random_pd(GenConfig(3, 13))
        X = random_ginibre(GenConfig(3, 14))
        r = check_inequality("I_diag_psd", [A, X])
        assert r.verdict in ("certified_pass", "tolerance_pass")
        assert r.note == ""

    def test_classical_ids_force_operator_norm(self):
        r = check_inequality("A_upper", [random_ginibre(GenConfig(3, 15))], FROBENIUS)
        assert r.norm == "op"

    def test_psd_block_ids_certify(self):
        for ineq in ("L2_block_tan", "L3_block_sec"):
            for s in range(3):
                mats = generate_inputs(REGISTRY[ineq], 3, 1000 + s)
                r = check_inequality(ineq, mats, OPERATOR)
                assert r.verdict == "certified_pass", (ineq, s, r.note)

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            check_inequality("B_prod4", [VOLTERRA])
        with pytest.raises(ValueError):
            check_inequality("C_mprod", [VOLTERRA])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            check_inequality("B_prod4", [np.eye(2), np.eye(3)])

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            check_inequality("nope", [VOLTERRA])

    def test_m_fold_accepts_any_arity(self):
        mats = [random_accretive_dissipative(GenConfig(2, 20 + j)) for j in range(4)]
        r = check_inequality("C_AD_m", mats, OPERATOR)
        assert r.verdict in ("certified_pass", "tolerance_pass")
        assert r.dim == 2

    def test_sectorial_id_inapplicable_on_non_sectorial(self):
        r = check_inequality("T1_prod_sec_N", [VOLTERRA, VOLTERRA], FROBENIUS)
        assert r.verdict == "inapplicable"
        assert "sectorial" in r.note


class TestVerifiedSectorIndex:
    def test_first_try_adds_exactly_alpha_inflation(self):
        for seed, alpha in ((1, 0.3), (2, 1.2), (3, 1.569)):
            X = random_sectorial(GenConfig(4, seed), alpha)
            info = sector_index(X)
            assert _verified([info], [X])[0].index_alpha == info.index_alpha + harness._ALPHA_INFLATION

    def test_underestimated_index_is_inflated_until_it_holds(self):
        r = np.exp(1j * 1.0)
        X = np.diag([1.0, r, (2.0 + 1e-4j) * r, 3.0 * r])
        U = random_unitary(GenConfig(4, 5))
        X = U @ X @ U.conj().T
        exact = sector_index(X)
        low = replace(exact, index_alpha=1.0)
        (got,) = _verified([low], [X])
        assert got.index_alpha >= exact.index_alpha
        assert got.index_alpha < exact.index_alpha + 1e-4
        assert np.linalg.eigvalsh(tan_block(X, got.index_alpha)).min() >= -1e-12

    @pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600], ids=["1", "2^600", "2^-600"])
    def test_sector_pair_is_scale_free_and_encloses_mpmath(self, scale):
        # W(D) for D = diag(e^{0.5i}, 1e7) is a segment of index 0.5: at a =
        # 0.5 + 1e-8 the pair sin(a) Re D -+ cos(a) Im D has the eigenvalue
        # sin(1e-8) against 1e7 sin(a).  A slack of 8 eps ||Re D||_F (1.8e-8
        # here) rejected that first inflation; the certificate scales
        # the pair to unit diagonal, so it accepts it at any scale.  Rotated
        # inputs take zX's forming budget; every accepted pair of the exact
        # z X is positive semidefinite at the float index (mpmath, 30 digits).
        import mpmath

        D = scale * np.diag([np.exp(0.5j), 1e7])
        (got,) = _verified([sector_index(D)], [D])
        assert got.index_alpha == sector_index(D).index_alpha + harness._ALPHA_INFLATION
        cases = [(got, D)]
        for n, seed in ((2, 1), (4, 2), (6, 3)):
            X = scale * np.exp(1.3j * seed) * random_sectorial(GenConfig(n, seed), 0.4 * seed)
            cases.append((_verified([rotation_to_sector(X)], [X])[0], X))
        for info, X in cases:
            with mpmath.workdps(30):
                z, a = mpmath.mpc(info.rotation_z), mpmath.mpf(info.index_alpha)
                Y = mpmath.matrix([[z * mpmath.mpc(complex(v)) for v in row] for row in X])
                re_y, im_y = (Y + Y.H) / 2, (Y - Y.H) / (2j)
                for sign in (1, -1):
                    H = mpmath.sin(a) * re_y - sign * mpmath.cos(a) * im_y
                    assert min(mpmath.re(v) for v in mpmath.eighe(H, eigvals_only=True)) >= 0, (X, info)

    def test_lanes_equal_single_calls_when_one_needs_more_inflation(self):
        # One underestimated index fails the first try, so the stacked
        # certificate raises and is redone lane by lane: every lane keeps
        # the bits of its own call.  An index that reaches pi/2 raises its
        # own note wherever it stands.
        r = np.exp(1j * 1.0)
        U = random_unitary(GenConfig(4, 5))
        V = U @ np.diag([1.0, r, (2.0 + 1e-4j) * r, 3.0 * r]) @ U.conj().T
        low = replace(sector_index(V), index_alpha=1.0)
        mats = [random_sectorial(GenConfig(4, 30 + k), 0.3 * (k + 1)) for k in range(3)]
        infos = [sector_index(X) for X in mats]
        for pos in range(4):
            stack_infos, stack = infos[:pos] + [low] + infos[pos:], mats[:pos] + [V] + mats[pos:]
            got = _verified(stack_infos, stack)
            assert got == [_verified([info], [X])[0] for info, X in zip(stack_infos, stack)], pos
        E = np.diag([1.0, 2.0, 3.0, np.exp(1j * (np.pi / 2 - 1e-9))])
        edge = replace(sector_index(E), index_alpha=0.0)
        with pytest.raises(Inapplicable) as alone:
            _verified([edge], [E])
        with pytest.raises(Inapplicable) as stacked:
            _verified([infos[0], edge, low], [mats[0], E, V])
        assert str(stacked.value) == str(alone.value)

    def test_inflation_reaching_half_pi_is_inapplicable(self):
        X = np.diag([1.0, np.exp(1j * (np.pi / 2 - 1e-9))])
        low = replace(sector_index(X), index_alpha=0.0)
        with pytest.raises(Inapplicable, match="reaches pi/2"):
            _verified([low], [X])


def near_rank_one_hermitian(n: int, seed: int) -> np.ndarray:
    """U diag(1, +-1e-8, ...) U* for a seeded unitary U and signs."""
    U = random_unitary(GenConfig(n, seed))
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], n - 1)
    return U @ np.diag(np.concatenate([[1.0], signs * 1e-8])) @ U.conj().T


def near_rank_one_accretive(n: int, seed: int) -> np.ndarray:
    """1e4 (U diag(1, 1e-8, ...) U* + 1e-9 i (G + G^T)) for a seeded unitary U and real G."""
    U = random_unitary(GenConfig(n, seed))
    G = np.random.default_rng(seed).normal(size=(n, n))
    return 1e4 * (U @ np.diag(np.concatenate([[1.0], np.full(n - 1, 1e-8)])) @ U.conj().T + 1e-9j * (G + G.T))


def block_index(result) -> float:
    """The index a' at which a block row's note says its block was certified."""
    return float(re.search(r"at index (\S+):", result.note).group(1))


class TestNormIntervals:
    def test_trace_norm_of_near_rank_one_hermitian(self):
        # w_N(X) = N(X) for Hermitian X, so the two sides of SA_omega_le_N
        # meet; a norm interval that misses the trace norm fails the check.
        for t in range(200):
            n = 2 + t % 5
            X = near_rank_one_hermitian(n, 300 + t)
            r = check_inequality("SA_omega_le_N", [X], TRACE)
            assert r.verdict != "certified_fail", (t, r)
            if t % 4 == 0:
                iv = _norm_iv(TRACE, X)
                assert iv.lo <= mp_schatten_norm(X, 1.0) <= iv.hi, (t, iv)

    def test_psd_lhs_is_padded_by_the_eigensolver_model(self):
        # The lhs of a block row encloses -lambda_min of the exact block of
        # the exact zX (the float z times the input) at the float index its
        # note states, computed by mpmath at 30 digits, and is no wider
        # than the pad that _block_certificate states.  Besides generated
        # inputs, 1e4 times near-rank-one accretive ones, whose blocks are
        # nearly singular.
        import mpmath

        cases = [(n, 2 * n + s) for n in (2, 3, 4, 5, 6) for s in range(2)] + [(16, 0)]
        for ineq, block in (("L2_block_tan", tan_block), ("L3_block_sec", sec_block)):
            inputs = [generate_inputs(REGISTRY[ineq], n, 700 + s) for n, s in cases]
            inputs += [[near_rank_one_accretive(n, 700 + n)] for n in (2, 3, 4)]
            for mats in inputs:
                n = len(mats[0])
                r = check_inequality(ineq, mats, OPERATOR)
                a = block_index(r)
                (info,), _ = _check_hypothesis(Hypothesis.SECTORIAL, mats, 1)
                Y = info.rotation_z * mats[0]
                B = block(Y, a)
                pad = (LAPACK_BACKWARD * 2 * n * np.linalg.norm(B) + 6.0 * (1.0 + 1.0 / math.cos(a)) * np.linalg.norm(Y))
                pad *= harness._EPS
                with mpmath.workdps(30):
                    z = mpmath.mpc(info.rotation_z)
                    Y = mpmath.matrix([[z * mpmath.mpc(complex(v)) for v in row] for row in mats[0]])
                    re_y, im_y = (Y + Y.H) / 2, (Y - Y.H) / (2j)
                    if block is tan_block:
                        top, off = mpmath.tan(mpmath.mpf(a)) * re_y, im_y
                    else:
                        top, off = mpmath.sec(mpmath.mpf(a)) * re_y, Y
                    exact = mpmath.zeros(2 * n)
                    for i in range(n):
                        for j in range(n):
                            exact[i, j] = exact[n + i, n + j] = top[i, j]
                            exact[i, n + j] = off[i, j]
                            exact[n + i, j] = mpmath.conj(off[j, i])
                    lam = min(mpmath.re(v) for v in mpmath.eighe(exact, eigvals_only=True))
                assert r.verdict == "certified_pass", (ineq, n, r)
                assert r.lhs.lo <= -lam <= r.lhs.hi < 0.0, (ineq, n, r.lhs, lam)
                assert r.lhs.hi - r.lhs.lo <= 2.0 * pad + 4.0 * math.ulp(r.lhs.lo), (ineq, n, r.lhs, pad)

    def test_a_wrong_block_is_a_certified_fail(self, monkeypatch):
        # Every index a block row tries is above the verified one, so a
        # block that stays far from PSD there (off-diagonal scaled by 10)
        # is a counterexample, not a cue to inflate toward pi/2.
        def tan_times_10(X, a):
            re_x, im_x = cartesian_decompose(X)
            return block2x2(math.tan(a) * re_x, 10.0 * im_x, 10.0 * im_x, math.tan(a) * re_x)

        def sec_times_10(X, a):
            re_x, _ = cartesian_decompose(X)
            return block2x2(re_x / math.cos(a), 10.0 * X, 10.0 * X.conj().T, re_x / math.cos(a))

        for ineq, block in (("L2_block_tan", tan_times_10), ("L3_block_sec", sec_times_10)):
            key = InequalityId(ineq)
            monkeypatch.setitem(REGISTRY, key, replace(REGISTRY[key], block=block))
            for n in (2, 5):
                r = check_inequality(ineq, generate_inputs(REGISTRY[key], n, 3), OPERATOR)
                assert r.verdict == "certified_fail" and r.lhs.lo > 0.0, (ineq, n, r)

    def test_tight_blocks_are_certified_above_the_verified_index(self):
        # At the index the sector pair verifies, lambda_min of these blocks
        # is within the eigensolver model of 0; the block loop inflates
        # further.  The inputs come from a scan of seeds 90000 + s for a
        # block index more than 1e-7 above the verified one: at n = 5 only
        # s = 2653 of s < 5000 has it, at n = 32 only s = 256 of s < 600.
        for n, s in ((5, 2653), (32, 256)):
            mats = generate_inputs(REGISTRY["L3_block_sec"], n, seed=90000 + s)
            r = check_inequality("L3_block_sec", mats, OPERATOR)
            (info,), _ = _check_hypothesis(Hypothesis.SECTORIAL, mats, 1)
            assert r.verdict == "certified_pass" and r.lhs.hi < 0.0, (n, r)
            assert (r.rhs.lo, r.rhs.hi) == (0.0, 0.0)
            assert block_index(r) > info.index_alpha + 1e-7, (n, r.note, info)

    def test_scalar_terms_enclose_mpmath(self):
        # Each sec/tan/const/diagonal term encloses the exact value at its
        # float operands (mpmath at 50 digits) with a pad of its own stated
        # rounding budget, and stays within a few eps of it.
        import mpmath

        rng = np.random.default_rng(61)
        alphas = np.append(rng.uniform(0.0, 0.5 * math.pi - 1e-6, 198), [0.0, 0.5 * math.pi - 1e-6])
        cases = []
        with mpmath.workdps(50):
            for a in alphas.tolist():
                ev = SimpleNamespace(alpha=lambda of, a=a: a)
                x = mpmath.mpf(a)
                cases += [(harness.Sec(0), ev, mpmath.sec(x)), (harness.Tan(0), ev, mpmath.tan(x))]
                cases.append((harness.OnePlusTan(0), ev, 1 + mpmath.tan(x)))
            for k in range(200):
                base, per_input, m = float(rng.uniform(1.0, 4.0)), (0.25, 0.5, 1.0, 2.0)[k % 4], 2 + k % 7
                exact = mpmath.mpf(base) ** (mpmath.mpf(per_input) * m)
                cases.append((harness.Const(base, per_input), SimpleNamespace(mats=[None] * m), exact))
            # 50 matrices with 4 diagonal entries each, at scales 1e-8 to 1e8.
            for _ in range(50):
                d = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 10.0 ** rng.uniform(-8.0, 8.0, 4)
                ev = SimpleNamespace(matrix=lambda of, M=np.diag(d): M)
                moduli = [mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2) for z in d.tolist()]
                cases.append((harness.DiagAbsMax(0), ev, max(moduli)))
                cases.append((harness.DiagReMax(0), ev, max(mpmath.mpf(z.real) for z in d.tolist())))
            for term, ev, exact in cases:
                iv = term.interval(ev)
                assert iv.lo <= exact <= iv.hi, (term, iv, exact)
                assert iv.hi - iv.lo <= 8.0 * harness._EPS * abs(iv.hi) + 2.0 * math.ulp(iv.hi), (term, iv)


class TestFarScaleHypotheses:
    # Sector data and block certificates are scale-free: inputs scaled by
    # 2^+-600 (entries near 4e180 or 2e-181, all finite) are certified as
    # the unscaled ones are.  Two-input rows scale their inputs apart.
    UNARY = ("P3_sec", "P2_im_tan", "L1_norm_sec", "L2_block_tan", "L3_block_sec")
    BINARY = ("II_prod_sec", "T1_prod_sec_N", "H3_had_sec_N", "T_onetan_min", "C_onetan")

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("k", [600, -600])
    def test_scaled_inputs_are_certified(self, n, k):
        for ineq in self.UNARY + self.BINARY:
            mats = generate_inputs(REGISTRY[ineq], n, seed=77)
            scaled = [math.ldexp(1.0, k if j == 0 else -k) * M for j, M in enumerate(mats)]
            r = check_inequality(ineq, scaled, TRACE)
            assert r.verdict == "certified_pass", (ineq, r.note)


class TestEqualityFixtures:
    # Inputs on which both sides are equal in exact arithmetic, so a sound
    # check can only report tolerance_pass: a certified verdict would prove
    # one of its enclosures wrong.  The first input is scaled; Hermitian,
    # diagonal and positive definite inputs stay so under scaling.
    SCALES = (1.0, 1e8, 1e-8, 2.0**600, 2.0**-600)
    ROWS = (
        ("SA_omega_le_N", "hermitian", ALL_NORMS),
        ("P1_re_mono", "hermitian", ALL_NORMS),
        ("A_upper", "diagonal", (OPERATOR,)),
        ("L6_had_diag_norm", "diagonal, I", ALL_NORMS),
        ("L7_had_diag_omega", "diagonal, I", ALL_NORMS),
        ("L1_norm_sec", "pd", ALL_NORMS),
        ("P3_sec", "pd", ALL_NORMS),
        ("II_prod_sec", "I, I", (OPERATOR,)),
        ("T1_prod_sec_N", "pd, I", (OPERATOR,)),
    )

    @staticmethod
    def inputs(kind: str, n: int, seed: int) -> list[np.ndarray]:
        G = random_ginibre(GenConfig(n, seed))
        first = {
            "hermitian": (G + G.conj().T) / 2,
            "diagonal": np.diag(G.diagonal()),
            # Eigenvalues in [1, 5] for a Ginibre G of this size: well
            # conditioned, so the gate certifies its index 0 at first try.
            "pd": (G @ G.conj().T) / n + np.eye(n),
            "I": np.eye(n, dtype=complex),
        }[kind.split(", ")[0]]
        return [first] + [np.eye(n, dtype=complex)] * kind.count(", ")

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
    def test_equal_sides_are_never_certified(self, n):
        for ineq, kind, norms in self.ROWS:
            mats = self.inputs(kind, n, seed=2300 + n)
            for scale in self.SCALES:
                scaled = [scale * mats[0]] + mats[1:]
                for norm in norms:
                    r = check_inequality(ineq, scaled, norm)
                    assert r.verdict == "tolerance_pass", (ineq, n, scale, norm.label, r.verdict, r.note)


class TestRhsStructure:
    def test_sec_factor_monotone_in_alpha_inflation(self, monkeypatch):
        mats = generate_inputs(REGISTRY["T1_prod_sec_N"], 3, 99)
        small = check_inequality("T1_prod_sec_N", mats, FROBENIUS)
        monkeypatch.setattr(harness, "_ALPHA_INFLATION", 0.1)
        big = check_inequality("T1_prod_sec_N", mats, FROBENIUS)
        assert big.rhs.lo > small.rhs.lo
        assert small.lhs.lo == pytest.approx(big.lhs.lo, rel=1e-12)

    def test_min_form_below_consequence_form(self):
        mats = generate_inputs(REGISTRY["C_onetan"], 3, 123)
        tight = check_inequality("T_onetan_min", mats, FROBENIUS)
        loose = check_inequality("C_onetan", mats, FROBENIUS)
        assert tight.verdict in ("certified_pass", "tolerance_pass")
        assert loose.verdict in ("certified_pass", "tolerance_pass")
        assert tight.rhs.mid <= loose.rhs.mid * (1 + 1e-9)

    def test_t1_with_positive_definite_inputs_ratio_below_one(self):
        mats = [random_pd(GenConfig(3, 31)), random_pd(GenConfig(3, 32))]
        r = check_inequality("T1_prod_sec_N", mats, OPERATOR)
        assert r.verdict in ("certified_pass", "tolerance_pass")
        assert r.ratio is not None and r.ratio <= 1.0 + 1e-9


class TestRunSuite:
    def test_small_suite_no_certified_fail(self):
        rep = run_suite("all", 2, [2, 3], [OPERATOR, FROBENIUS], seed=7)
        assert rep.certified_fail_total == 0
        assert rep.ok
        assert set(rep.per_id) == {i.value for i in all_ids()}
        for summary in rep.per_id.values():
            assert summary.trials == 2
            assert sum(summary.verdicts.values()) == summary.trials

    def test_determinism_modulo_wall_time(self):
        a = run_suite(["B_prod4", "P1_re_mono"], 3, [2, 3], [OPERATOR], seed=3)
        b = run_suite(["B_prod4", "P1_re_mono"], 3, [2, 3], [OPERATOR], seed=3)
        oa, ob = a.report_obj(), b.report_obj()
        oa["summary"]["wall_time_s"] = ob["summary"]["wall_time_s"] = 0.0
        assert json.dumps(oa, sort_keys=True) == json.dumps(ob, sort_keys=True)

    def test_an_id_alone_reproduces_its_results_from_all(self):
        # Trial seeds follow an id's registry position, not its position in
        # the request, so an id run alone or beside others draws the same inputs.
        norms = [OPERATOR, FROBENIUS]
        every = run_suite("all", 2, [2, 3], norms, seed=11).results
        for ineq in ("P3_sec", "C_onetan"):
            alone = run_suite(ineq, 2, [2, 3], norms, seed=11).results
            assert alone == [r for r in every if r.id == ineq], ineq
        pair = run_suite(["A_upper", "P3_sec"], 2, [2, 3], norms, seed=11).results
        assert pair == [r for r in every if r.id in ("A_upper", "P3_sec")]

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_suite("all", 0, [2], [OPERATOR], seed=1)
        for trials in (2.5, True, "1", None):
            with pytest.raises(ValueError, match="trials must be an integer"):
                run_suite(["A_lower"], trials, [2], [OPERATOR], seed=1)
        # numpy integers run and are recorded as Python ints.
        rep = run_suite(["A_lower"], np.int64(1), [np.int32(2)], [OPERATOR], seed=np.int64(5))
        config = json.loads(rep.to_json())["config"]
        assert (config["trials"], config["dims"], config["seed"]) == (1, [2], 5)
        assert type(rep.config["trials"]) is int and type(rep.config["seed"]) is int

    def test_dims_and_norms_validation(self):
        with pytest.raises(ValueError, match="empty id set"):
            run_suite([], 1, [2], [OPERATOR], seed=1)
        with pytest.raises(ValueError):
            run_suite("all", 1, [], [OPERATOR], seed=1)
        with pytest.raises(ValueError):
            run_suite("all", 1, [2], [], seed=1)
        for dims in ([2.5], [True], [2, "3"]):
            with pytest.raises(ValueError, match="dims must be an integer"):
                run_suite("all", 1, dims, [OPERATOR], seed=1)
        for seed in (1.0, False, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                run_suite("all", 1, [2], [OPERATOR], seed=seed)

    def test_numpy_context_records_python_numbers(self):
        # A context built from numpy scalars stores Python numbers, so the
        # report's config serialises; the default flags keep their report.
        ctx = CheckContext(refine_tol=np.float32(1e-3), m_fold=np.int64(3))
        assert (type(ctx.refine_tol), type(ctx.m_fold)) == (float, int)
        rep = run_suite(["A_lower"], 1, [2], [OPERATOR], seed=1, context=ctx)
        config = json.loads(rep.to_json())["config"]
        assert (config["refine_tol"], config["m_fold"]) == (float(np.float32(1e-3)), 3)
        assert CheckContext(np.float64(1e-10), np.int32(3)) == DEFAULT_CONTEXT

    def test_the_start_grid_is_a_constant(self):
        # Every tight pass starts on grid 32; a context has no grid to set,
        # and a report records none.
        assert [f.name for f in fields(CheckContext)] == ["refine_tol", "m_fold"]
        assert DEFAULT_CONTEXT.grid == radius.DEFAULT_GRID == CheckContext(refine_tol=1e-3).grid
        with pytest.raises(TypeError):
            CheckContext(grid=8)
        with pytest.raises(TypeError):
            replace(DEFAULT_CONTEXT, grid=8)
        assert harness._tight(DEFAULT_CONTEXT) == ((radius.DEFAULT_GRID, DEFAULT_CONTEXT.refine_tol),)
        assert "grid" not in run_suite(["A_lower"], 1, [2], [OPERATOR], seed=1).config

    def test_a_single_id_is_one_id(self):
        # A string is one id, not an iterable of characters.
        want = run_suite(["A_lower"], 2, [2], [OPERATOR], seed=3).report_obj()["results"]
        for ids in ("A_lower", InequalityId.A_lower):
            assert run_suite(ids, 2, [2], [OPERATOR], seed=3).report_obj()["results"] == want

    def test_norm_cycling_covers_requested_norms(self):
        rep = run_suite(["SA_omega_le_N"], 8, [2, 3], [OPERATOR, FROBENIUS], seed=11)
        norms_seen = {r.norm for r in rep.results}
        assert norms_seen == {"op", "fro"}


class TestPlan:
    def test_each_row_is_written_out_once_per_input_count(self):
        for info in REGISTRY.values():
            if info.block is not None:
                continue
            for m in (info.arity,) if info.arity else (2, 3, 5):
                plan = harness._plan(info, m)
                assert harness._plan(info, m) is plan, (info.id, m)
                lhs, rhs, omegas, others = plan
                assert "Each(" not in repr((lhs, rhs)), (info.id, m)
                assert len(set(omegas)) == len(omegas) and len(set(others)) == len(others), (info.id, m)
                assert all(isinstance(t, harness.Omega) for t in omegas)
                assert not any(isinstance(t, harness.Omega) for t in others)

    def test_m_fold_plans_follow_the_input_count(self):
        mprod, secm = REGISTRY["C_mprod"], REGISTRY["C_secm"]
        _, rhs, omegas, others = harness._plan(mprod, 5)
        assert list(omegas) == [harness.Omega(harness.PRODUCT)] + [harness.Omega(k) for k in range(5)]
        assert list(others) == [harness.Sec(k) for k in range(5)]
        assert len(rhs) == 10 and harness._plan(mprod, 2) is not harness._plan(mprod, 5)
        assert list(harness._plan(secm, 3)[3]) == [harness.Sec(harness.MAX)]


class TestNormSpecRefusal:
    def test_a_norm_that_is_not_a_norm_spec_is_refused_before_any_check(self, monkeypatch):
        # Classical rows replace the norm with op and others would fail only
        # after their gate, so the type is checked up front.
        checks = []
        monkeypatch.setattr(harness, "_check", lambda *a, **k: checks.append(a))
        X = random_sectorial(GenConfig(3, 9), 0.5)
        for ineq in ("A_upper", "SA_omega_le_N", "P3_sec"):
            for norm in ("op", None):
                with pytest.raises(ValueError, match="norm must be a NormSpec"):
                    check_inequality(ineq, [X], norm)
        for norms in ("op", ["tr"], [OPERATOR, "fro"]):
            with pytest.raises(ValueError, match="norms must be a nonempty list of NormSpec values"):
                run_suite("all", 1, [2], norms, seed=1)
        assert checks == []


class TestReportPin:
    def test_report_bits_are_pinned(self):
        # 20 trials meet every dimension x norm pair of every id.  Any bit
        # that moves anywhere in generation, gating, radii or the report
        # changes this digest.
        report = run_suite("all", 20, range(2, 7), DEFAULT_NORMS, seed=42)
        obj = report.report_obj()
        obj["summary"].pop("wall_time_s")
        digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert digest == "ed797c57a02e9943ce1d9a64645f93284dafbe687b005ed34cfc2b69df2cc2e1"
        # The text `verify --out` writes, layout included.
        report.wall_time_s = 0.0
        layout = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert layout == "11cdf7743318f5f01e496b466ffa2ebe6ccb17ce1c6b8139cc8bd260cf5fb87f"


class TestInputPin:
    def test_input_bits_are_pinned(self):
        # The draws of every id at n = 2..6 and 16, apart from the radii
        # that the report pin also covers.
        digest = hashlib.sha256()
        for info in REGISTRY.values():
            for n in (2, 3, 4, 5, 6, 16):
                for seed in range(4):
                    for M in generate_inputs(info, n, seed=5000 + 10 * n + seed):
                        digest.update(M.tobytes())
        assert digest.hexdigest() == "6f78394e136f098307397941916bb57e3ce53ba12d5f848a3472a9fae35c72ad"


class TestExplicitPin:
    def test_explicit_sector_checks_are_pinned(self):
        # check_inequality searches the sector data of explicit inputs,
        # which suites never do for rows of several inputs.  Every
        # SECTORIAL and ACCRETIVE row at n = 2 and 5, in tr, as drawn and
        # with its last input replaced by a Ginibre matrix, which most
        # rows refuse with a note naming that input: 480 checks.
        rows = [info for info in REGISTRY.values() if info.requires in (Hypothesis.SECTORIAL, Hypothesis.ACCRETIVE)]
        assert len(rows) == 20
        digest = hashlib.sha256()
        for info in rows:
            for n in (2, 5):
                for seed in range(6):
                    mats = generate_inputs(info, n, seed=seed)
                    for inputs in (mats, mats[:-1] + [random_ginibre(GenConfig(n, seed))]):
                        obj = check_inequality(info.id, inputs, TRACE).to_obj()
                        digest.update(json.dumps(obj, sort_keys=True).encode())
        assert digest.hexdigest() == "27e7504a1ca7418e7e1ce5b535b3bab284ee881e2f0fb2e579ae1fc98d61d817"


def radius_terms(ineq, mats, spec, grid, refine_tol):
    """Every Omega term of one check certified to ``refine_tol`` from ``grid``, and its verdict."""
    info = REGISTRY[ineq]
    omegas = harness._plan(info, len(mats))[2]
    with pytest.MonkeyPatch.context() as mp:
        calls = record_radii(mp)
        lhs, rhs, _ = harness._evaluate(info, mats, spec, ((grid, refine_tol),))
    ests = calls[0][4] if calls else ()
    terms = {t: Interval(e.value, math.nextafter(e.value + e.cert_error, math.inf)) for t, e in zip(omegas, ests)}
    return terms, classify(lhs, rhs)


def record_radii(monkeypatch) -> list:
    """(spec, matrices, grid, refine_tol, estimates) of every omega_n call the harness makes."""
    calls = []
    original = harness.omega_n

    def recorded(spec, *mats, grid, refine_tol):
        ests = original(spec, *mats, grid=grid, refine_tol=refine_tol)
        calls.append((spec, mats, grid, refine_tol, ests if len(mats) > 1 else (ests,)))
        return ests

    monkeypatch.setattr(harness, "omega_n", recorded)
    return calls


def suite_check(ineq, mats, norm, ctx=DEFAULT_CONTEXT, proof=None):
    """One check as run_suite runs it: coarse radii first, the gate accepting the draw's ``proof`` when given."""
    return harness._check(ineq, mats, norm, None, harness._passes(ctx), proof)


class TestCoarsePass:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
    def test_coarse_radii_enclose_tight_ones(self, n):
        # Each rung and the tight pass enclose the same radius, and the tight
        # grid holds every coarse sample (the angles of grids 4 and 8 are
        # those of grid 32, bit for bit), so each coarse interval, the
        # Cartesian bracket of grid 4 and the grid-8 interval alike, holds
        # the tight one; a term where it does not shows that one of the two
        # paths is unsound.  A suite check then settles on the verdict a
        # tight check gives.
        for ineq in all_ids():
            info = REGISTRY[ineq]
            if info.block is not None:
                continue
            for k, norm in enumerate((OPERATOR,) if info.classical else ALL_NORMS):
                mats = generate_inputs(info, n, seed=6000 + 10 * n + k)
                tight, verdict = radius_terms(ineq, mats, norm, *harness._tight(DEFAULT_CONTEXT)[0])
                for rung in harness._COARSE_PASSES:
                    coarse, _ = radius_terms(ineq, mats, norm, *rung)
                    for term, iv in tight.items():
                        assert coarse[term].lo <= iv.lo and iv.hi <= coarse[term].hi, (ineq, norm.label, rung, term)
                assert suite_check(ineq, mats, norm).verdict == verdict, (ineq, norm.label)

    def test_first_rung_is_the_cartesian_bracket(self):
        # On 4 cells at tolerance 1.0 a general radius is
        # [max(N(Re X), N(Im X)), hypot(N(Re X), N(Im X)) + e], e the sample
        # error, with N(Re X) and N(Im X) the bits of their own norms.
        grid, tol = harness._COARSE_PASSES[0]
        for n in (2, 3, 6, 16):
            for k, spec in enumerate((OPERATOR, TRACE, schatten(3))):
                X = random_ginibre(GenConfig(n, 7100 + 10 * n + k))
                A, B = cartesian_decompose(X)
                nA, nB = hermitian_norm(spec, A), hermitian_norm(spec, B)
                est = radius.omega_n(spec, X, grid=grid, refine_tol=tol)
                assert est.value == max(nA, nB), (n, spec.label, est)
                upper = math.hypot(nA, nB) + radius._sample_error(A, B, spec.schatten_p)
                assert est.value + est.cert_error == upper, (n, spec.label, est)

    @staticmethod
    def matrices_per_check(monkeypatch, dims) -> float:
        """eigvalsh matrices per check of the suite over every id x four norms at ``dims``.

        The suite must not ask for the kernel flag: no suite lane is
        trace-free, so none is graded for the rotation bound.
        """
        mats = [0]
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            mats[0] += int(np.prod(np.shape(a)[:-2], dtype=np.int64))
            return original(a, *args, **kwargs)

        def refuse(*args):
            raise AssertionError("a suite radius asked for the kernel flag")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(radius, "_flag_grading", refuse)
        rep = run_suite("all", 20, dims, DEFAULT_NORMS, seed=42)
        return mats[0] / len(rep.results)

    def test_eigensolve_budget_per_check(self, monkeypatch):
        # 6.67 with the Cartesian bracket first, against 12.6 with the first
        # pass on 8 cells at 0.2 (generation and gates included).
        per_check = self.matrices_per_check(monkeypatch, range(2, 7))
        assert per_check <= 7.5, per_check

    def test_eigensolve_budget_per_check_at_large_n(self, monkeypatch):
        # 6.91 at n = 16, 24, 32 with the Cartesian bracket first, against
        # 12.9 with the first pass on 8 cells at 0.2.
        per_check = self.matrices_per_check(monkeypatch, (16, 24, 32))
        assert per_check <= 7.5, per_check

    def test_suite_passes_without_the_rotation_path(self, monkeypatch):
        # Only a trace-free lane is graded for the rotation bound, and no
        # suite lane is trace-free: every id certifies in every norm at
        # n = 2..6 and 16 with the grading refused.  Trial t takes dims[t
        # mod 6] and norms[t div 6 mod 4], so 24 trials meet each pair.
        def refuse(*args):
            raise AssertionError("a suite radius asked for the kernel flag")

        monkeypatch.setattr(radius, "_flag_grading", refuse)
        dims = (2, 3, 4, 5, 6, 16)
        rep = run_suite("all", 24, dims, ALL_NORMS, seed=43)
        assert {r.verdict for r in rep.results} == {"certified_pass"}
        assert {(r.dim, r.norm) for r in rep.results} == {(n, norm.label) for n in dims for norm in ALL_NORMS}

    def test_open_check_takes_the_tight_pass(self, monkeypatch):
        # The Volterra pair attains B_prod4's constant, so its sides overlap
        # on both coarse rungs; the suite recomputes the radii alone on each
        # rung and last at refine_tol, and reports the bits of
        # check_inequality.
        calls = record_radii(monkeypatch)
        pair = [VOLTERRA, VOLTERRA.T.copy()]
        suite = suite_check("B_prod4", pair, OPERATOR)
        tight = (DEFAULT_CONTEXT.grid, DEFAULT_CONTEXT.refine_tol)
        assert [(grid, tol) for _, _, grid, tol, _ in calls] == [(4, 1.0), (8, 0.2), tight]
        tight = check_inequality("B_prod4", pair, OPERATOR)
        assert json.dumps(suite.to_obj()) == json.dumps(tight.to_obj())
        assert suite.ratio == pytest.approx(1.0, abs=1e-9)

    def test_settled_check_takes_one_pass(self, monkeypatch):
        calls = record_radii(monkeypatch)
        mats = generate_inputs(REGISTRY["T1_prod_sec_N"], 4, seed=5)
        assert suite_check("T1_prod_sec_N", mats, TRACE).verdict == "certified_pass"
        assert [(grid, tol) for _, _, grid, tol, _ in calls] == [(4, 1.0)]

    def test_second_rung_settles_what_the_bracket_leaves_open(self, monkeypatch):
        # Some suite checks overlap on the Cartesian bracket and separate on
        # 8 cells at 0.2, with no tight pass.
        calls = record_radii(monkeypatch)
        for seed in range(40):
            mats = generate_inputs(REGISTRY["SA_omega_le_N"], 3, seed=seed)
            calls.clear()
            if suite_check("SA_omega_le_N", mats, OPERATOR).verdict == "certified_pass" and len(calls) == 2:
                break
        assert [(grid, tol) for _, _, grid, tol, _ in calls] == [(4, 1.0), (8, 0.2)]

    def test_coarse_refine_tol_runs_one_pass(self, monkeypatch):
        # A rung runs only when its tolerance is above the context's: a
        # context at or above 1.0 runs its own pass alone, one at 0.2 or
        # 0.25 the bracket first.
        calls = record_radii(monkeypatch)
        for tol, rungs in ((0.2, [(4, 1.0)]), (0.25, [(4, 1.0)]), (1.0, []), (1.5, [])):
            calls.clear()
            ctx = replace(DEFAULT_CONTEXT, refine_tol=tol)
            suite_check("B_prod4", [VOLTERRA, VOLTERRA.T.copy()], OPERATOR, ctx)
            assert [(g, t) for _, _, g, t, _ in calls] == rungs + [(32, tol)]

    def test_coarse_pass_closes_on_coarse_cells(self, monkeypatch):
        # A coarse cell's term f/cos(h + pad), h = pi/grid, exceeds its
        # sample f by 0.414 f on 4 cells and 0.0824 f on 8, less than
        # g_stop = L tol/2 (0.5 L and 0.1 L) since no sample exceeds the
        # Lipschitz constant L.  Every coarse cell passes, so a general
        # radius is its first eigvalsh alone, of its grid/2 even samples
        # (theta = 0 and pi/2, Re X and Im X, on 4 cells), and closes right
        # there: no rotation bound, odd sample, fine row, fit round, ladder,
        # covering cell or subdivision.
        assert harness._COARSE_PASSES == ((4, 1.0), (8, 0.2))
        for (grid, tol), excess in zip(harness._COARSE_PASSES, (0.4142, 0.0824)):
            premise = 1.0 / math.cos(math.pi / grid + radius._PAD) - 1.0
            assert premise == pytest.approx(excess, abs=1e-4) and premise < tol / 2
        calls = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
            return original(a, *args, **kwargs)

        def refuse(*args):
            raise AssertionError("a lane went on past its coarse cells")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(radius, "_profile_values", refuse)
        monkeypatch.setattr(radius, "_open_blocks", refuse)
        monkeypatch.setattr(radius, "_flag_grading", refuse)
        monkeypatch.setattr(radius, "_covering_cells", refuse)
        monkeypatch.setattr(radius, "_subdivide", refuse)
        for n in (2, 3, 4, 5, 6, 16, 32):
            for k, spec in enumerate((OPERATOR, TRACE, schatten(3))):
                for seed in range(4):
                    X = random_ginibre(GenConfig(n, 7000 + 10 * n + 4 * k + seed))
                    for grid, tol in harness._COARSE_PASSES:
                        calls.clear()
                        radius.omega_n(spec, X, grid=grid, refine_tol=tol)
                        assert calls == [grid // 2], (n, spec.label, seed, grid, calls)

    def test_tight_callers_stay_tight(self, monkeypatch):
        calls = record_radii(monkeypatch)
        tightness_scan("B_prod4", trials=6, seed=1)
        for ineq in ("P1_re_mono", "C_mprod", "T_onetan_min"):
            for norm in ALL_NORMS:
                check_inequality(ineq, generate_inputs(REGISTRY[ineq], 4, seed=8), norm)
        tight = harness._tight(DEFAULT_CONTEXT)
        assert calls and all(((grid, tol),) == tight for _, _, grid, tol, _ in calls)
        tol = DEFAULT_CONTEXT.refine_tol
        for spec, mats, _, _, ests in calls:
            for X, est in zip(mats, ests):
                A, B = cartesian_decompose(X)
                L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
                assert est.cert_error <= 0.5 * L * tol * (1 + 1e-9), (spec.label, est)


class TestStageBudgets:
    LAPACK = ("eigvalsh", "eigh", "eig", "solve", "cholesky", "inv")

    def test_generation_and_gate_calls_per_check(self, monkeypatch):
        # numpy.linalg calls (and matrices) per check in generate_inputs and
        # in the hypothesis gate, over all 34 ids at n = 2..6.  Every input
        # of a check is drawn, gated and verified as one stack, so a check
        # makes at most 3 calls to draw and 8 to gate, whatever its arity.
        stage = [None]
        calls, mats = Counter(), Counter()
        for name in self.LAPACK:
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, **kwargs):
                if stage[0] is not None:
                    calls[stage[0]] += 1
                    mats[stage[0]] += int(np.prod(np.shape(a)[:-2], dtype=np.int64))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        checks = 0
        for ineq in all_ids():
            info = REGISTRY[ineq]
            for n in range(2, 7):
                stage[0] = "generate"
                inputs = generate_inputs(info, n, seed=1000 + n, m_fold=3)
                stage[0] = "gate"
                _check_hypothesis(info.requires, inputs, info.arity)
                stage[0] = None
                checks += 1
        per_check = {k: calls[k] / checks for k in calls}
        # Every draw is exact, so generation proves its hypothesis with no
        # call; the gate of these explicit inputs still runs in full.
        assert "generate" not in per_check, per_check
        assert per_check["gate"] <= 163 / 34, per_check
        # Stacking must not add matrices: one per gate test.
        assert mats["gate"] / checks <= 10.5, mats

    def test_claimed_gate_is_one_cholesky_per_try(self, monkeypatch):
        # Verifying the draw's claims of a SECTORIAL or ACCRETIVE row of
        # several inputs, as _verified would for explicit inputs: each
        # inflation try is one stacked Cholesky of the sector pair, with no
        # search (eigh), no whitening (inv, eigvalsh) and no other LAPACK
        # call, and every claim at n = 2..6 certifies on its first try.
        calls, tries = Counter(), [0]
        for name in self.LAPACK:
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        certificate = harness.pd_certificate

        def tried(*args, **kwargs):
            tries[0] += 1
            return certificate(*args, **kwargs)

        monkeypatch.setattr(harness, "pd_certificate", tried)
        checks = 0
        for info in claimed_rows():
            for n in range(2, 7):
                for seed in range(3):
                    inputs = generate_inputs(info, n, seed=1000 + 10 * n + seed)
                    calls.clear()
                    tries[0] = 0
                    _verified(inputs.claims, inputs)
                    assert dict(calls) == {"cholesky": tries[0]}, (info.id, n, seed, calls)
                    assert tries[0] == 1, (info.id, n, seed)
                    checks += 1
        assert checks == 15 * 5 * 3


def claimed_rows() -> list:
    """The rows whose suite checks take the draw's sector data as proven: the 15 SECTORIAL or ACCRETIVE rows of several inputs."""
    kinds = (Hypothesis.SECTORIAL, Hypothesis.ACCRETIVE)
    rows = [info for info in REGISTRY.values() if info.requires in kinds and harness._takes_proof(info)]
    assert len(rows) == 15 and all(info.arity != 1 for info in rows)
    return rows


def searched(info, inputs) -> tuple:
    """The sector data of each input as the search gives it alone: rotation_to_sector, or sector_index for ACCRETIVE."""
    search = sector_index if info.requires is Hypothesis.ACCRETIVE else rotation_to_sector
    return tuple(search(X) for X in inputs)


class TestSectorClaims:
    # A claim is the index and rotation of the exact draw to a few ulps,
    # and the search's result is an index that can only come out wide (the
    # gate's shift).  Both agree within BOUND, measured at
    # 2.6e-13 at n <= 6 and 2.2e-9 at n = 32; it stays below
    # _ALPHA_INFLATION, so the verified claim is never below the search's
    # index by more than the inflation covers.
    BOUND = 5e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16, 32])
    def test_claims_agree_with_the_search(self, n):
        # Every SECTORIAL and ACCRETIVE row, one-input rows included: the
        # search must find the draw's index and, where the index is not
        # within BOUND of 0, its rotation; a search that found too large an
        # index would weaken every sectorial check without failing any.
        # check_inequality, which searches, gives the suite's verdict.
        assert self.BOUND < harness._ALPHA_INFLATION
        rows = [info for info in REGISTRY.values() if info.requires in (Hypothesis.SECTORIAL, Hypothesis.ACCRETIVE)]
        assert len(rows) == 20
        for k, info in enumerate(rows):
            for seed in range(3):
                inputs = generate_inputs(info, n, seed=8000 + 10 * n + seed)
                assert len(inputs.claims) == len(inputs)
                for got, claim in zip(searched(info, inputs), inputs.claims):
                    assert abs(got.index_alpha - claim.index_alpha) <= self.BOUND, (info.id, seed, got, claim)
                    if claim.index_alpha > self.BOUND:
                        assert abs(got.rotation_z - claim.rotation_z) <= self.BOUND, (info.id, seed, got, claim)
                norm = ALL_NORMS[(k + seed) % 4]
                suite = suite_check(info.id, inputs, norm, proof=inputs.proof if harness._takes_proof(info) else None)
                assert suite.verdict == check_inequality(info.id, inputs, norm).verdict, (info.id, seed)

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_wrong_claims_are_certified_or_inapplicable(self, n):
        # The verifier trusts no claim: an index of 0, the true index less
        # 1e-3, or the true rotation turned by delta = +-0.05 each come out
        # certified at no less than the searched minimal index plus the
        # turn of z off the searched bisector (rotating off the bisector
        # widens the sector by exactly that), less rounding, or refused.
        for info in claimed_rows():
            inputs = generate_inputs(info, n, seed=9100 + n)
            tight = [rotation_to_sector(X) for X in inputs]
            for wrong in (
                [replace(c, index_alpha=0.0) for c in inputs.claims],
                [replace(c, index_alpha=max(c.index_alpha - 1e-3, 0.0)) for c in inputs.claims],
                [replace(c, rotation_z=c.rotation_z * np.exp(0.05j)) for c in inputs.claims],
                [replace(c, rotation_z=c.rotation_z * np.exp(-0.05j)) for c in inputs.claims],
            ):
                try:
                    infos = _verified(wrong, inputs)
                except Inapplicable:
                    continue
                for got, claim, best in zip(infos, wrong, tight):
                    assert got.rotation_z == claim.rotation_z
                    turn = abs(np.angle(claim.rotation_z * np.conj(best.rotation_z)))
                    assert got.index_alpha >= best.index_alpha + turn - self.BOUND, (info.id, claim, got, best)


LAPACK = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "solve", "cholesky", "inv", "qr")


def proven_rows() -> list:
    """The rows whose suite gate tests something that the draw proves: the claimed rows and the PD, PSD and AD rows."""
    kinds = (Hypothesis.PD_SECOND, Hypothesis.PSD_NOTE, Hypothesis.ACCRETIVE_DISSIPATIVE)
    return claimed_rows() + [info for info in REGISTRY.values() if info.requires in kinds]


class TestDrawProofs:
    def test_proofs_agree_with_the_verifiers_of_explicit_inputs(self, monkeypatch):
        # 2200 drawn trials: _verified certifies each claimed row's claims
        # at its first try and returns the draw's proof bit for bit, and the
        # positive definite and accretive-dissipative gates pass every PD
        # and AD input, so a suite that takes the proof reports what one
        # that verified would.
        tries = [0]
        certificate = harness.pd_certificate

        def tried(*args, **kwargs):
            tries[0] += 1
            return certificate(*args, **kwargs)

        monkeypatch.setattr(harness, "pd_certificate", tried)
        trials = 0
        for info in proven_rows():
            for n in range(2, 7):
                for seed in range(20):
                    inputs = generate_inputs(info, n, seed=20000 + 100 * n + seed)
                    tries[0] = 0
                    if info.requires is Hypothesis.ACCRETIVE_DISSIPATIVE:
                        harness._require_accretive_dissipative(inputs, info.arity)
                        assert inputs.proof == []
                    elif info.requires is Hypothesis.PD_SECOND:
                        harness._require_pd(inputs[1], "second input")
                        assert inputs.proof == []
                    elif info.requires is Hypothesis.PSD_NOTE:
                        harness._require_pd(inputs[0], "first input")
                        assert inputs.proof == []
                    else:
                        assert _verified(inputs.claims, inputs) == inputs.proof, (info.id, n, seed)
                        assert tries[0] == 1, (info.id, n, seed)
                        assert all(p.index_alpha == c.index_alpha + harness._ALPHA_INFLATION for p, c in zip(inputs.proof, inputs.claims))
                    trials += 1
        assert trials == 22 * 5 * 20

    def test_suite_gate_of_a_proven_row_calls_no_lapack(self, monkeypatch):
        # run_suite hands each of these rows its draw's proof, so its gate
        # calls no numpy.linalg routine; check_inequality on the same
        # inputs runs the whole gate (Cholesky tests, and for a claimed
        # row the sector search).
        calls, gates, inside = Counter(), Counter(), [None]
        for name in LAPACK:
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                if inside[0] is not None:
                    calls[inside[0], _name] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        gate = harness._check_hypothesis

        def staged(kind, mats, arity, proof=None):
            inside[0] = "suite" if proof is not None else "explicit"
            gates[inside[0]] += 1
            try:
                return gate(kind, mats, arity, proof)
            finally:
                inside[0] = None

        monkeypatch.setattr(harness, "_check_hypothesis", staged)
        rows = proven_rows()
        report = run_suite([info.id for info in rows], 4, [2, 5], [TRACE], seed=3)
        assert {r.verdict for r in report.results} == {"certified_pass"}
        assert gates == {"suite": len(report.results)} and calls == {}, (gates, calls)
        for info in rows:
            calls.clear()
            assert check_inequality(info.id, generate_inputs(info, 4, seed=9), TRACE).verdict == "certified_pass"
            assert calls[("explicit", "cholesky")] > 0, (info.id, calls)
            if info.requires is Hypothesis.SECTORIAL:
                assert calls[("explicit", "eigh")] + calls[("explicit", "inv")] > 0, (info.id, calls)


class TestTightnessScan:
    def test_b_prod4_fixture_attains_one(self):
        rep = tightness_scan("B_prod4", trials=6, seed=1)
        assert rep.per_id["B_prod4"].max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_a_upper_normal_fixture_attains_one(self):
        rep = tightness_scan("A_upper", trials=6, seed=2)
        assert rep.per_id["A_upper"].max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_h2_fixture_attains_one(self):
        rep = tightness_scan("H2_hermitian_had", trials=0, seed=3)
        assert rep.per_id["H2_hermitian_had"].max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_psd_ids_rejected(self):
        with pytest.raises(ValueError):
            tightness_scan("L2_block_tan", trials=1, seed=1)
        with pytest.raises(ValueError, match="trials must be >= 0"):
            tightness_scan("B_prod4", trials=-1, seed=1)
        for trials in (2.5, True):
            with pytest.raises(ValueError, match="trials must be an integer"):
                tightness_scan("B_prod4", trials=trials, seed=1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            tightness_scan("B_prod4", trials=1, seed=1.5)


class TestExplainAndRegistry:
    def test_registry_complete(self):
        assert len(all_ids()) == 34

    def test_explain_contains_statement(self):
        text = explain("T1_prod_sec_N")
        assert "sec(a1) sec(a2)" in text
        assert "T1_prod_sec_N" in text

    def test_explain_all_ids(self):
        for ineq in all_ids():
            text = explain(ineq)
            assert ineq.value in text

    def test_generate_inputs_match_hypothesis_and_arity(self):
        for ineq, info in REGISTRY.items():
            for n in range(2, 7):
                for seed in (9, 10, 11):
                    mats = generate_inputs(info, n, seed=seed, m_fold=4)
                    assert len(mats) == (info.arity or 4), (ineq, n, seed)
                    _, note = _check_hypothesis(info.requires, mats, info.arity)
                    assert note == "", (ineq, n, seed, note)
        # Every input bit of every row at two (n, seed) pairs: a change to
        # any draw or seed tag changes every suite report.
        digest = hashlib.sha256()
        for n, seed in ((3, 5), (6, 11)):
            for ineq in all_ids():
                for M in generate_inputs(REGISTRY[ineq], n, seed, m_fold=3):
                    digest.update(M.tobytes())
        assert digest.hexdigest() == "bc34278b37682a009bf4c09904f219346b68be3e6504e7c608580d307a110ef8"
        # Wider: every draw's claims (index and rotation) as well, n = 16,
        # and the stacked public factories at scales 2^-8 and 2^8 with a
        # seed above 2^63.
        digest = hashlib.sha256()
        for n, seed in ((3, 5), (6, 11), (16, 7)):
            for ineq in all_ids():
                inputs = generate_inputs(REGISTRY[ineq], n, seed, m_fold=3)
                for M in inputs:
                    digest.update(M.tobytes())
                for claim in inputs.claims or ():
                    digest.update(np.array([claim.index_alpha, claim.rotation_z.real, claim.rotation_z.imag]).tobytes())
        for scale in (2.0**-8, 2.0**8):
            cfgs = [GenConfig(4, seed, scale) for seed in (1, 2, 2**63 + 5)]
            stacks = (ginibre_stack(cfgs), pd_stack(cfgs), sectorial_stack(cfgs, [0.0, 0.7, 1.4]), accretive_dissipative_stack(cfgs))
            for M in (*stacks, *(random_unitary(cfg) for cfg in cfgs)):
                digest.update(M.tobytes())
        assert digest.hexdigest() == "c4b2683d21f43976f9064a8ce0a3445567b033aef756e6c2f0a19c6cff62b053"

    def test_docs_table_lists_every_id_in_order(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "inequalities.md").read_text()
        documented = re.findall(r"^\| `(\w+)` \|", text, flags=re.MULTILINE)
        assert documented == [i.value for i in all_ids()]


# Ginibre(2, seed 0): not sectorial, not accretive, not accretive-dissipative
# and not Hermitian, and nonsingular, so it fails differently from VOLTERRA.
GINIBRE = random_ginibre(GenConfig(2, 0))
# Hermitian but indefinite: refused as a positive definite input.
INDEFINITE = np.diag([1.0, -1.0]).astype(complex)
REFUSING_IDS = [i for i in all_ids() if REGISTRY[i].requires not in (None, Hypothesis.PSD_NOTE)]


def violation(kind: Hypothesis, bad: np.ndarray, k: int, arity: int) -> str:
    """The part of the note that names input k as the violating one."""
    which = ("first input", "second input")[k] if arity else f"input {k}"
    if kind is Hypothesis.SECTORIAL:
        with pytest.raises(ValueError) as exc:
            rotation_to_sector(bad)
        return f"{which}: input is not sectorial: {exc.value}"
    if kind is Hypothesis.ACCRETIVE:
        with pytest.raises(ValueError) as exc:
            sector_index(bad)
        return f"{which}: input is not accretive sectorial: {exc.value}"
    if kind is Hypothesis.ACCRETIVE_DISSIPATIVE:
        return f"{which} is not accretive-dissipative"
    if kind is Hypothesis.PD_SECOND:
        return f"{which} is not " + ("positive definite" if np.array_equal(bad, bad.conj().T) else "Hermitian")
    return "neither input is Hermitian"


class TestTable:
    @pytest.mark.parametrize("ineq", REFUSING_IDS, ids=lambda i: i.value)
    def test_first_violating_input_is_reported_before_any_radius(self, ineq, monkeypatch):
        radii = []
        monkeypatch.setattr(harness, "omega_n", lambda *a, **k: radii.append(a))
        info = REGISTRY[ineq]
        good = generate_inputs(info, 2, seed=5, m_fold=3)
        kind = info.requires
        if kind is Hypothesis.ONE_HERMITIAN:
            positions = [0]
            good[1] = GINIBRE
        else:
            positions = [1] if kind is Hypothesis.PD_SECOND else range(len(good))
        for k in positions:
            for bad in (VOLTERRA, GINIBRE) + ((INDEFINITE,) if kind is Hypothesis.PD_SECOND else ()):
                mats = list(good)
                mats[k] = bad
                r = check_inequality(ineq, mats, TRACE)
                assert r.verdict == "inapplicable", (k, r)
                assert violation(kind, bad, k, info.arity) in r.note, (k, r.note)
            if k + 1 < len(good) and kind is not Hypothesis.ONE_HERMITIAN:
                mats = list(good)
                mats[k], mats[k + 1] = VOLTERRA, GINIBRE
                first = violation(kind, VOLTERRA, k, info.arity)
                later = violation(kind, GINIBRE, k + 1, info.arity)
                assert first != later
                note = check_inequality(ineq, mats, TRACE).note
                assert first in note and later not in note, (k, note)
        assert radii == []

    # Radii computed by omega_n and sectors computed by rotation_to_sector
    # and sector_index (matrices over all their calls) in one n = 3 trial
    # with m = 3: every distinct radius and sector is computed exactly
    # once, omega_n is called at most once, and each sector search once
    # per input.
    WORK = {
        "A_lower": (1, 0, 0), "A_upper": (1, 0, 0), "B_prod4": (3, 0, 0),
        "C_had2": (3, 0, 0), "I_diag_psd": (2, 0, 0), "II_prod_sec": (3, 2, 0),
        "III_had_sec": (3, 2, 0), "VI_had_diag_min": (3, 2, 0), "L1_norm_sec": (0, 1, 0),
        "L2_block_tan": (0, 1, 0), "L3_block_sec": (0, 1, 0), "P1_re_mono": (2, 0, 0),
        "P2_im_tan": (2, 1, 0), "P3_sec": (2, 1, 0), "SA_omega_le_N": (1, 0, 0),
        "T1_prod_sec_N": (3, 2, 0), "C_B2_sec2": (3, 2, 0), "C_AD_prod2": (3, 0, 0),
        "C_mprod": (4, 3, 0), "C_secm": (4, 3, 0), "C_AD_m": (4, 0, 0),
        "H2_hermitian_had": (3, 0, 0), "H3_had_sec_N": (3, 2, 0), "C_C2_had": (3, 2, 0),
        "T_had_m": (4, 3, 0), "C_AD_had_m": (4, 0, 0), "L6_had_diag_norm": (0, 0, 0),
        "L7_had_diag_omega": (2, 0, 0), "T_diag_x": (2, 2, 0), "T_diag_y": (2, 2, 0),
        "C_diag_min": (3, 2, 0), "C_AD_diag_min2": (3, 0, 0), "T_onetan_min": (5, 0, 2),
        "C_onetan": (3, 0, 2),
    }

    @pytest.mark.parametrize("ineq", all_ids(), ids=lambda i: i.value)
    def test_each_term_is_computed_once(self, ineq, monkeypatch):
        calls = Counter()
        work = Counter()
        names = ("omega_n", "rotation_to_sector", "sector_index")
        for name in names:
            original = getattr(harness, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                # omega_n(spec, X, *more): one radius per matrix; a sector
                # search takes one matrix
                work[_name] += len(args) - 1 if _name == "omega_n" else len(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        # An m-fold row also runs at m = 2 and 5, with a radius of the
        # product and one radius and sector per input: a plan cached on the
        # row alone, not on (row, m), would compute the terms of another m.
        info = REGISTRY[ineq]
        for m in (3, 2, 5) if info.arity == 0 else (3,):
            calls.clear()
            work.clear()
            mats = generate_inputs(info, 3, seed=5, m_fold=m)
            r = check_inequality(ineq, mats, TRACE)
            assert r.verdict == "certified_pass", (m, r)
            sectors = self.WORK[ineq.value][1]
            want = self.WORK[ineq.value] if m == 3 else (m + 1, m if sectors else 0, 0)
            assert tuple(work[name] for name in names) == want, m
            assert calls["omega_n"] <= 1 and all(calls[name] == work[name] for name in names[1:]), calls
