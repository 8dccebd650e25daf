import hashlib
import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sector_radius.generator import (
    GenConfig,
    random_accretive_dissipative,
    random_ginibre,
    random_pd,
    random_sectorial,
    random_unitary,
)
from sector_radius import harness
from sector_radius.harness import (
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
from sector_radius.linalg import DimensionError
from sector_radius.norms import FROBENIUS, OPERATOR, TRACE, schatten
from sector_radius.sectorial import rotation_to_sector, sector_index, tan_block
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

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_suite("all", 0, [2], [OPERATOR], seed=1)

    def test_dims_and_norms_validation(self):
        with pytest.raises(ValueError):
            run_suite("all", 1, [], [OPERATOR], seed=1)
        with pytest.raises(ValueError):
            run_suite("all", 1, [2], [], seed=1)

    def test_norm_cycling_covers_requested_norms(self):
        rep = run_suite(["SA_omega_le_N"], 8, [2, 3], [OPERATOR, FROBENIUS], seed=11)
        norms_seen = {r.norm for r in rep.results}
        assert norms_seen == {"op", "fro"}


class TestReportPin:
    def test_report_bits_are_pinned(self):
        # 20 trials meet every dimension x norm pair of every id.  Any bit
        # that moves anywhere in generation, gating, radii or the report
        # changes this digest.
        obj = run_suite("all", 20, range(2, 7), DEFAULT_NORMS, seed=42).report_obj()
        obj["summary"].pop("wall_time_s")
        digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert digest == "006ac1fd9a31fd609c08f768d501788e43e4849b970285abd76a0be142d1ce66"


class TestStageBudgets:
    LAPACK = ("eigvalsh", "eigh", "eig", "solve", "cholesky")

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
        assert per_check["generate"] <= 67 / 34, per_check
        assert per_check["gate"] <= 163 / 34, per_check
        # Stacking must not add matrices: one per draw step and gate test.
        assert mats["generate"] / checks <= 137 / 34, mats
        assert mats["gate"] / checks <= 10.5, mats


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
        assert digest.hexdigest() == "84c18aca919fe07da57c71dca2dfc815bba33d9f78fa8078b7cbc83c72d29a63"

    def test_docs_table_lists_every_id_in_order(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "inequalities.md").read_text()
        documented = re.findall(r"^\| `(\w+)` \|", text, flags=re.MULTILINE)
        assert documented == [i.value for i in all_ids()]


# Ginibre(2, seed 0): not sectorial, not accretive, not accretive-dissipative
# and not Hermitian, and nonsingular, so it fails differently from VOLTERRA.
GINIBRE = random_ginibre(GenConfig(2, 0))
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
        return f"{which} is not Hermitian"
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
            for bad in (VOLTERRA, GINIBRE):
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
    # once, and each function is called at most once.
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
                # omega_n(spec, X, *more): one radius per matrix; the sector
                # functions take (X, *more): one sector per matrix
                work[_name] += len(args) - 1 if _name == "omega_n" else len(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        mats = generate_inputs(REGISTRY[ineq], 3, seed=5, m_fold=3)
        r = check_inequality(ineq, mats, TRACE)
        assert r.verdict == "certified_pass", r
        assert tuple(work[name] for name in names) == self.WORK[ineq.value]
        assert all(calls[name] <= 1 for name in names), calls
