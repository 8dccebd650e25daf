import math

import numpy as np
import pytest

from sector_radius.generator import GenConfig, random_unitary
from sector_radius.linalg import hadamard
from sector_radius.norms import (
    FROBENIUS,
    OPERATOR,
    TRACE,
    NormSpec,
    evaluate_norm,
    hermitian_norm,
    parse_norm,
    schatten,
)
from helpers import norm_of_svals, random_complex, random_hermitian

ALL_NORMS = (OPERATOR, TRACE, FROBENIUS, schatten(3))


class TestNormSpec:
    def test_aliases(self):
        rng = np.random.default_rng(0)
        X = random_complex(rng, 4)
        assert evaluate_norm(TRACE, X) == pytest.approx(evaluate_norm(schatten(1), X), rel=1e-13)
        assert evaluate_norm(FROBENIUS, X) == pytest.approx(evaluate_norm(schatten(2), X), rel=1e-13)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            schatten(0.5)
        with pytest.raises(ValueError):
            NormSpec("sp")
        with pytest.raises(ValueError):
            NormSpec("op", p=3)
        with pytest.raises(ValueError):
            NormSpec("nuc")
        with pytest.raises(ValueError, match="'op'"):
            schatten(math.inf)

    def test_labels(self):
        assert OPERATOR.label == "op"
        assert schatten(3).label == "sp:3"
        assert schatten(2.5).label == "sp:2.5"


class TestParseNorm:
    @pytest.mark.parametrize("text,kind,p", [("op", "op", None), ("tr", "tr", None),
                                             ("fro", "fro", None), ("sp:3", "sp", 3.0),
                                             (" sp:1.5 ", "sp", 1.5)])
    def test_grammar(self, text, kind, p):
        spec = parse_norm(text)
        assert spec.kind == kind and spec.p == p

    @pytest.mark.parametrize("text", ["", "spectral", "sp:", "sp:abc", "sp:0.5", "sp:inf", "p2"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_norm(text)


class TestEvaluateNorm:
    def test_identity_trace(self):
        assert evaluate_norm(TRACE, np.eye(5)) == pytest.approx(5.0, abs=1e-12)

    def test_nilpotent_values(self):
        V = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert evaluate_norm(OPERATOR, V) == pytest.approx(1.0, abs=1e-14)
        assert evaluate_norm(FROBENIUS, V) == pytest.approx(1.0, abs=1e-14)
        assert evaluate_norm(TRACE, V) == pytest.approx(1.0, abs=1e-14)

    def test_schatten3_known_diagonal(self):
        assert evaluate_norm(schatten(3), np.diag([1.0, 2.0])) == pytest.approx(9.0 ** (1 / 3), rel=1e-13)

    def test_zero_iff_zero(self):
        rng = np.random.default_rng(1)
        X = random_complex(rng, 3)
        for spec in ALL_NORMS:
            assert evaluate_norm(spec, np.zeros((3, 3))) == 0.0
            assert evaluate_norm(spec, X) > 1e-14

    def test_submultiplicative_operator(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            X, Y = random_complex(rng, 4), random_complex(rng, 4)
            assert evaluate_norm(OPERATOR, X @ Y) <= evaluate_norm(OPERATOR, X) * evaluate_norm(
                OPERATOR, Y
            ) * (1 + 1e-12)

    def test_family_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            X = random_complex(rng, 5)
            op = evaluate_norm(OPERATOR, X)
            tr = evaluate_norm(TRACE, X)
            for p in (1.5, 2.0, 3.0, 7.0):
                v = evaluate_norm(schatten(p), X)
                assert op <= v * (1 + 1e-12)
                assert v <= tr * (1 + 1e-12)

    def test_self_adjoint_value(self):
        rng = np.random.default_rng(4)
        X = random_complex(rng, 5)
        for spec in ALL_NORMS:
            a, b = evaluate_norm(spec, X), evaluate_norm(spec, X.conj().T)
            assert abs(a - b) <= 1e-10 * a

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        X = random_complex(rng, 4)
        U, V = random_unitary(GenConfig(4, 7)), random_unitary(GenConfig(4, 8))
        for spec in ALL_NORMS:
            a, b = evaluate_norm(spec, X), evaluate_norm(spec, U @ X @ V)
            assert abs(a - b) <= 1e-9 * a

    def test_large_exponent_no_overflow(self):
        X = np.diag([1e150, 5e149]).astype(complex)
        v = evaluate_norm(schatten(200), X)
        expect = 1e150 * (1.0 + 0.5**200) ** (1 / 200)
        assert math.isfinite(v)
        assert v == pytest.approx(expect, rel=1e-10)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(6)
        X = random_complex(rng, 5)
        s = np.linalg.svd(X, compute_uv=False)
        for spec, p in ((OPERATOR, math.inf), (TRACE, 1.0), (FROBENIUS, 2.0), (schatten(3), 3.0)):
            assert evaluate_norm(spec, X) == pytest.approx(float(norm_of_svals(s, p)), rel=1e-12)

    def test_hermitian_norm_agrees(self):
        rng = np.random.default_rng(7)
        H = random_hermitian(rng, 5)
        for spec in ALL_NORMS:
            assert hermitian_norm(spec, H) == pytest.approx(evaluate_norm(spec, H), rel=1e-12)


def axiom_draws(seed: int, trials: int = 100):
    """(X, Y, c): Ginibre pairs of sizes 2..6 and a complex scalar."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        n = 2 + t % 5
        yield random_complex(rng, n), random_complex(rng, n), complex(rng.normal(), rng.normal())


class TestNormAxioms:
    """The axioms the inequality suite assumes, at 1e-9 relative tolerance."""

    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    def test_triangle(self, spec):
        for X, Y, _ in axiom_draws(11):
            bound = evaluate_norm(spec, X) + evaluate_norm(spec, Y)
            assert evaluate_norm(spec, X + Y) <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    def test_absolute_homogeneity(self, spec):
        for X, _, c in axiom_draws(12):
            expect = abs(c) * evaluate_norm(spec, X)
            assert abs(evaluate_norm(spec, c * X) - expect) <= 1e-9 * expect

    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    def test_submultiplicative(self, spec):
        for X, Y, _ in axiom_draws(13):
            bound = evaluate_norm(spec, X) * evaluate_norm(spec, Y)
            assert evaluate_norm(spec, X @ Y) <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("spec", ALL_NORMS, ids=lambda s: s.label)
    def test_hadamard_submultiplicative(self, spec):
        for X, Y, _ in axiom_draws(14):
            bound = evaluate_norm(spec, X) * evaluate_norm(spec, Y)
            assert evaluate_norm(spec, hadamard(X, Y)) <= bound * (1 + 1e-9)
