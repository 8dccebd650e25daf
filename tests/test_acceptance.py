"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full randomized
suite (criterion 5) executes twice overall because criterion 10 checks
byte-level determinism of the report.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from sector_radius.generator import GenConfig, random_accretive_dissipative, random_sectorial, random_unitary
from sector_radius.harness import DEFAULT_NORMS, check_inequality, run_suite, tightness_scan
from sector_radius.linalg import frobenius, herm_eig
from sector_radius.norms import OPERATOR, evaluate_norm, hermitian_norm
from sector_radius.radius import omega, omega_n
from sector_radius.sectorial import sec_block, sector_index, tan_block
from helpers import norm_of_svals, profile_abs_eigs, random_complex, random_hermitian

VOLTERRA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

SUITE_ARGS = dict(ids="all", trials=200, dims=[2, 3, 4, 5, 6], norms=list(DEFAULT_NORMS), seed=42)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def full_suite():
    start = time.perf_counter()
    report = run_suite(**SUITE_ARGS)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_eigensolver_soundness():
    rng = np.random.default_rng(20241)
    worst_resid = worst_ortho = 0.0
    for k in range(500):
        n = 2 + k % 15
        H = random_hermitian(rng, n, scale=float(rng.uniform(0.05, 20.0)))
        res = herm_eig(H)
        scale = max(1.0, frobenius(H))
        resid = np.linalg.norm(H @ res.eigenvectors - res.eigenvectors * res.eigenvalues) / scale
        ortho = np.linalg.norm(res.eigenvectors.conj().T @ res.eigenvectors - np.eye(n))
        worst_resid = max(worst_resid, resid)
        worst_ortho = max(worst_ortho, ortho)
    ok = worst_resid <= 1e-10 and worst_ortho <= 1e-10
    _report(1, ok, f"500 Hermitian, worst residual {worst_resid:.2e}, worst orthogonality {worst_ortho:.2e}")


def test_criterion_2_radius_certification():
    # Lower containment allows the oracle's own grid resolution L*h/2:
    # the refined lower bound is tighter than any fixed 1e5-point grid.
    rng = np.random.default_rng(20242)
    samples = 100000
    worst_rel_cert = 0.0
    checked = 0
    for k in range(100):
        n = 2 + k % 5
        X = random_complex(rng, n)
        lam = profile_abs_eigs(X, samples)
        A = (X + X.conj().T) / 2
        B = (X - X.conj().T) / 2j
        for spec in DEFAULT_NORMS:
            p = spec.schatten_p
            L = hermitian_norm(spec, A) + hermitian_norm(spec, B)
            est = omega_n(spec, X)
            oracle = float(norm_of_svals(lam, p).max())
            assert oracle <= est.value + est.cert_error + 1e-12, (k, spec.label)
            assert est.value <= oracle + L * (math.pi / samples) / 2 + 1e-12, (k, spec.label)
            assert est.cert_error <= 1e-6 * L, (k, spec.label, est.cert_error, L)
            worst_rel_cert = max(worst_rel_cert, est.cert_error / L)
            checked += 1
    _report(2, True, f"{checked} radius certificates vs 1e5-point oracle, worst cert/L {worst_rel_cert:.2e}")


def test_criterion_3_classical_fixtures():
    est = omega(VOLTERRA)
    ok1 = abs(est.value - 0.5) <= 1e-8
    worst_normal = 0.0
    rng = np.random.default_rng(20243)
    for k in range(50):
        n = 2 + k % 5
        U = random_unitary(GenConfig(n, 500 + k))
        lam = rng.normal(size=n) + 1j * rng.normal(size=n)
        X = U @ np.diag(lam) @ U.conj().T
        worst_normal = max(worst_normal, abs(omega(X).value - np.abs(lam).max()))
    ok2 = worst_normal <= 1e-8
    worst_herm = 0.0
    A = random_hermitian(np.random.default_rng(20244), 5, scale=2.0)
    for spec in DEFAULT_NORMS:
        worst_herm = max(worst_herm, abs(omega_n(spec, A).value - hermitian_norm(spec, A)))
    ok3 = worst_herm <= 1e-10
    _report(
        3,
        ok1 and ok2 and ok3,
        f"nilpotent err {abs(est.value - 0.5):.1e}, normal worst {worst_normal:.1e}, "
        f"Hermitian worst {worst_herm:.1e}",
    )


def test_criterion_4_operator_bounds():
    rng = np.random.default_rng(20245)
    for k in range(500):
        n = 2 + k % 5
        X = random_complex(rng, n, scale=float(rng.uniform(0.2, 5.0)))
        est = omega(X)
        nx = evaluate_norm(OPERATOR, X)
        assert 0.5 * nx <= est.value + est.cert_error + 1e-12, k
        assert est.value <= nx * (1 + 1e-12), k
    est = omega(VOLTERRA)
    gap = abs(est.value - 0.5 * evaluate_norm(OPERATOR, VOLTERRA))
    _report(4, gap <= 1e-8, f"500 random two-sided bounds held, nilpotent lower-bound gap {gap:.1e}")


def test_criterion_5_full_suite(full_suite):
    report, elapsed = full_suite
    fails = report.certified_fail_total
    n_checks = len(report.results)
    _report(5, fails == 0, f"{n_checks} checks across 34 ids, certified_fail {fails}, {elapsed:.0f} s")


def test_criterion_6_product_constant_sharpness():
    report = tightness_scan("B_prod4", trials=40, seed=6)
    ratio = report.per_id["B_prod4"].max_ratio
    ok = ratio is not None and abs(ratio - 1.0) <= 1e-9
    _report(6, ok, f"B_prod4 max ratio {ratio:.12f}")


def test_criterion_7_sector_machinery():
    worst_idx = 0.0
    worst_block = 0.0
    for alpha in (0.1, 0.5, 1.0, 1.4):
        for k in range(50):
            n = 2 + k % 5
            X = random_sectorial(GenConfig(n, 9000 + k), alpha)
            got = sector_index(X).index_alpha
            worst_idx = max(worst_idx, abs(got - alpha))
            for block in (tan_block(X, got + 1e-8), sec_block(X, got + 1e-8)):
                lam_min = float(np.linalg.eigvalsh(block)[0])
                worst_block = max(worst_block, -lam_min / max(1e-300, frobenius(block)))
    ok = worst_idx <= 1e-6 and worst_block <= 1e-9
    _report(7, ok, f"200 draws, worst index error {worst_idx:.2e}, worst block -lam_min/||.|| {worst_block:.2e}")


def test_criterion_8_accretive_dissipative_constants():
    bad = 0
    total = 0
    for k in range(200):
        n = 2 + k % 5
        X = random_accretive_dissipative(GenConfig(n, 7000 + 2 * k))
        Y = random_accretive_dissipative(GenConfig(n, 7001 + 2 * k))
        for spec in DEFAULT_NORMS:
            for ineq in ("C_AD_prod2", "C_AD_had_m"):
                r = check_inequality(ineq, [X, Y], spec, seed=k)
                total += 1
                if r.verdict != "certified_pass":
                    bad += 1
    _report(8, bad == 0, f"{total} checks of the factor-2 product and Hadamard bounds, non-certified {bad}")


def test_criterion_9_positivity_counterfixture():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    J = np.ones((2, 2), dtype=complex)
    r = check_inequality("I_diag_psd", [A, J])
    _report(9, r.verdict == "certified_fail", f"verdict {r.verdict}, lhs >= {r.lhs.lo:.3f}, rhs <= {r.rhs.hi:.3f}")


def test_criterion_10_report_determinism(full_suite):
    report_a, _ = full_suite
    report_b = run_suite(**SUITE_ARGS)
    wall_a, wall_b = report_a.wall_time_s, report_b.wall_time_s
    # Compare the text `verify --out` writes, with equal wall times.
    text_a = dataclasses.replace(report_a, wall_time_s=0.0).to_json()
    text_b = dataclasses.replace(report_b, wall_time_s=0.0).to_json()
    ok = text_a.encode() == text_b.encode()
    _report(10, ok, f"reports byte-identical apart from wall time ({wall_a:.0f} s vs {wall_b:.0f} s)")
