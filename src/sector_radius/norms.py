"""The Schatten family of matrix norms.

Only this family ships because the inequality suite assumes norms that
are simultaneously unitarily invariant, submultiplicative, and
self-adjoint; every Schatten p-norm (including the operator, trace, and
Frobenius special cases) satisfies all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import GenConfig, mix_seed, random_ginibre, random_unitary
from .linalg import as_matrix, hadamard, singular_values
from .report import CheckResult, Interval

__all__ = [
    "NormSpec",
    "OPERATOR",
    "TRACE",
    "FROBENIUS",
    "schatten",
    "parse_norm",
    "schatten_value",
    "evaluate_norm",
    "hermitian_norm",
    "verify_norm_axioms",
]

_KINDS = ("op", "tr", "fro", "sp")


@dataclass(frozen=True)
class NormSpec:
    """Descriptor of one norm: operator, trace, Frobenius, or Schatten-p."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "sp":
            if self.p is None:
                raise ValueError("Schatten norm requires an exponent p")
            p = float(self.p)
            if math.isnan(p) or p < 1.0:
                raise ValueError(f"Schatten exponent must satisfy p >= 1, got {self.p}")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise ValueError(f"norm kind {self.kind!r} takes no exponent")

    @property
    def schatten_p(self) -> float:
        if self.kind == "op":
            return math.inf
        if self.kind == "tr":
            return 1.0
        if self.kind == "fro":
            return 2.0
        return self.p  # type: ignore[return-value]

    @property
    def label(self) -> str:
        if self.kind != "sp":
            return self.kind
        p = self.p
        return f"sp:{int(p)}" if p == int(p) else f"sp:{p:g}"


OPERATOR = NormSpec("op")
TRACE = NormSpec("tr")
FROBENIUS = NormSpec("fro")


def schatten(p: float) -> NormSpec:
    return NormSpec("sp", float(p))


def parse_norm(text: str) -> NormSpec:
    """Parse the spec string grammar: "op" | "tr" | "fro" | "sp:<p>"."""
    t = text.strip()
    if t in ("op", "tr", "fro"):
        return NormSpec(t)
    if t.startswith("sp:"):
        try:
            return schatten(float(t[3:]))
        except ValueError as exc:
            raise ValueError(f"invalid norm spec {text!r}: {exc}") from None
    raise ValueError(f"invalid norm spec {text!r}, expected op|tr|fro|sp:<p>")


def schatten_value(sing, p: float):
    """p-norm of a (stack of) nonnegative singular value vector(s).

    Accepts shape (..., n) and reduces the last axis.  Large exponents
    are evaluated on ratios sigma/sigma_max, which cannot overflow.
    """
    s = np.asarray(sing, dtype=np.float64)
    if math.isinf(p):
        return s.max(axis=-1)
    if p == 1.0:
        return s.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((s * s).sum(axis=-1))
    smax = s.max(axis=-1, keepdims=True)
    safe = np.where(smax > 0.0, smax, 1.0)
    ratios = s / safe
    acc = (ratios**p).sum(axis=-1) ** (1.0 / p)
    return np.where(smax[..., 0] > 0.0, smax[..., 0] * acc, 0.0)


def evaluate_norm(spec: NormSpec, X) -> float:
    """Value of the norm described by spec at X."""
    X = as_matrix(X)
    return float(schatten_value(singular_values(X), spec.schatten_p))


def hermitian_norm(spec: NormSpec, H) -> float:
    """Same value as evaluate_norm for Hermitian H, via eigenvalues."""
    H = as_matrix(H, "H")
    lam = np.linalg.eigvalsh((H + H.conj().T) / 2)
    return float(schatten_value(np.abs(lam), spec.schatten_p))


def verify_norm_axioms(spec: NormSpec, trials: int, seed: int) -> CheckResult:
    """Sample-based audit of the axioms the inequality suite relies on.

    Checks triangle inequality, absolute homogeneity, unitary invariance
    N(UXV) = N(X), self-adjointness N(X*) = N(X), submultiplicativity,
    and Hadamard submultiplicativity, and reports the worst relative
    violation across all trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worst = 0.0
    worst_axiom = "none"
    tiny = 1e-300
    for t in range(trials):
        n = 2 + (t % 5)
        X = random_ginibre(GenConfig(n, mix_seed(seed, 11, t)))
        Y = random_ginibre(GenConfig(n, mix_seed(seed, 12, t)))
        U = random_unitary(GenConfig(n, mix_seed(seed, 13, t)))
        V = random_unitary(GenConfig(n, mix_seed(seed, 14, t)))
        crng = np.random.Generator(np.random.Philox(key=mix_seed(seed, 15, t)))
        c = complex(crng.normal(), crng.normal())

        nx = evaluate_norm(spec, X)
        ny = evaluate_norm(spec, Y)
        checks = (
            ("triangle", evaluate_norm(spec, X + Y) - (nx + ny), nx + ny),
            ("homogeneity", abs(evaluate_norm(spec, c * X) - abs(c) * nx), abs(c) * nx),
            ("unitary_invariance", abs(evaluate_norm(spec, U @ X @ V) - nx), nx),
            ("self_adjoint", abs(evaluate_norm(spec, X.conj().T) - nx), nx),
            ("submultiplicative", evaluate_norm(spec, X @ Y) - nx * ny, nx * ny),
            ("hadamard_submultiplicative", evaluate_norm(spec, hadamard(X, Y)) - nx * ny, nx * ny),
        )
        for name, violation, scale in checks:
            rel = violation / max(scale, tiny)
            if rel > worst:
                worst = rel
                worst_axiom = name
    return CheckResult.from_comparison(
        id=f"axioms:{spec.label}",
        lhs=Interval.point(worst),
        rhs=Interval.point(1e-9),
        seed=seed,
        norm=spec.label,
        note=f"worst axiom: {worst_axiom}; trials: {trials}",
    )
