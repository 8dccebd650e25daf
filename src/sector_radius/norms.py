"""The Schatten family of matrix norms.

Only this family ships because the inequality suite assumes norms that
are simultaneously unitarily invariant, submultiplicative, and
self-adjoint; every Schatten p-norm (including the operator, trace, and
Frobenius special cases) satisfies all three.  Nothing here checks them at
run time: tests/test_norms.py samples them in every shipped norm
(TestEvaluateNorm for unitary invariance and self-adjointness,
TestNormAxioms for the triangle inequality, absolute homogeneity, and
ordinary and Hadamard submultiplicativity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_scaled_stack

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
            if math.isinf(p):
                raise ValueError("Schatten exponent must be finite; the p = inf norm is 'op'")
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
    are evaluated on ratios sigma/sigma_max, which cannot overflow.  A
    single vector is reduced as a stack of one, because numpy rounds the
    final power of an array and of a scalar differently: every row of a
    stack thus gets the bits of that row alone.  The reductions are the
    ufuncs' own, which ndarray.max and ndarray.sum call.
    """
    s = np.asarray(sing, dtype=np.float64)
    if s.ndim == 1:
        return schatten_value(s[None], p)[0]
    if math.isinf(p):
        return np.maximum.reduce(s, axis=-1)
    if p == 1.0:
        return np.add.reduce(s, axis=-1)
    if p == 2.0:
        return np.sqrt(np.add.reduce(s * s, axis=-1))
    smax = np.maximum.reduce(s, axis=-1)
    # An all-zero row divides by 1, so its ratios are 0 and smax * acc is +0.0.
    ratios = s / np.where(smax > 0.0, smax, 1.0)[..., None]
    acc = np.add.reduce(ratios**p, axis=-1) ** (1.0 / p)
    return smax * acc


def evaluate_norm(spec: NormSpec, X) -> float:
    """Value of the norm described by spec at X.

    X outside the safe range of linalg.as_scaled_stack is scaled by a
    power of two first, and the value scaled back exactly.
    """
    Xs, far = as_scaled_stack(X)
    s = np.linalg.svd(Xs[0], compute_uv=False)
    return math.ldexp(float(schatten_value(s, spec.schatten_p)), far.get(0, 0))


def hermitian_norm(spec: NormSpec, H) -> float:
    """Same value as evaluate_norm for Hermitian H, via eigenvalues.

    H is scaled as evaluate_norm scales it, and the value scaled back.
    """
    Hs, far = as_scaled_stack(H)
    H = Hs[0]
    lam = np.linalg.eigvalsh((H + H.conj().T) / 2)
    return math.ldexp(float(schatten_value(np.abs(lam), spec.schatten_p)), far.get(0, 0))
