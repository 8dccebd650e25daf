import math

import mpmath
import numpy as np

from exact import compare_fro, compare_omega_fro
from helpers import mp_frobenius_radius, random_complex
from sector_radius import harness
from sector_radius.harness import REGISTRY, run_suite
from sector_radius.norms import FROBENIUS
from sector_radius.report import Interval


def mp_frobenius_norm(M: np.ndarray) -> float:
    """||M||_F from mpmath at 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.fsum(mpmath.mpf(v) ** 2 for v in np.concatenate([M.real.ravel(), M.imag.ravel()]))))


def test_helpers_agree_with_mpmath():
    # The double nearest a 50-digit value is within half an ulp of it, so
    # its neighbours lie on either side of the exact value.
    rng = np.random.default_rng(25)
    for k in range(60):
        n = 1 + k % 6
        M = random_complex(rng, n, scale=2.0 ** rng.integers(-40, 40))
        if k % 5 == 0:
            M = (M + M.conj().T) / 2
        for value, compare in ((mp_frobenius_radius(M), compare_omega_fro), (mp_frobenius_norm(M), compare_fro)):
            below, above = math.nextafter(value, 0.0), math.nextafter(value, math.inf)
            assert compare(below, M) == -1 and compare(above, M) == 1, (k, compare.__name__)
    assert compare_omega_fro(0.0, np.zeros((3, 3), dtype=complex)) == 0
    assert compare_fro(-1.0, np.zeros((2, 2), dtype=complex)) == -1


def test_fro_suite_terms_enclose_the_exact_values(monkeypatch):
    # Every fro Omega and Norm term of a 20-trial suite of every row that
    # is neither classical nor a block row, on the matrix as the check
    # formed it: an Omega interval is [value, value + cert_error] rounded
    # up, as _certify forms it, and a Norm interval is _norm_iv's.  The
    # upper ends are certified and must not fall below the exact radius;
    # the lower end of an Omega interval is a computed sample, not a
    # bound, so it is not asserted.
    terms = {"Omega": [], "Norm": []}
    omega_n, norm_iv = harness.omega_n, harness._norm_iv

    def radii(spec, *mats, grid, refine_tol):
        ests = omega_n(spec, *mats, grid=grid, refine_tol=refine_tol)
        for M, est in zip(mats, ests if len(mats) > 1 else (ests,)):
            terms["Omega"].append((M, Interval(est.value, math.nextafter(est.value + est.cert_error, math.inf))))
        return ests

    def norm(spec, X):
        iv = norm_iv(spec, X)
        terms["Norm"].append((X, iv))
        return iv

    monkeypatch.setattr(harness, "omega_n", radii)
    monkeypatch.setattr(harness, "_norm_iv", norm)
    ids = [ineq for ineq, info in REGISTRY.items() if not info.classical and info.block is None]
    assert len(ids) == 24
    report = run_suite(ids, 20, range(2, 7), [FROBENIUS], seed=42)
    assert len(report.results) == 480
    assert len(terms["Omega"]) == 1300 and len(terms["Norm"]) == 100
    for M, iv in terms["Omega"]:
        assert compare_omega_fro(iv.hi, M) >= 0, (M.shape, iv)
    for M, iv in terms["Norm"]:
        assert compare_fro(iv.lo, M) <= 0 <= compare_fro(iv.hi, M), (M.shape, iv)

