"""Accretivity, sectoriality indices, and sector membership witnesses.

A matrix with numerical range in the open right half-plane (accretive)
has a sectoriality index: the largest |arg w| over its numerical range.
More generally a matrix belongs to the rotated sector class when some
unit-modulus z makes zX accretive; the minimal achievable index and the
witnessing rotation are what ``rotation_to_sector`` computes.

Everything here is exact up to rounding; nothing is sampled.  For
accretive Y = A + iB, arg <Yx, x> is arctan(<Bx, x> / <Ax, x>), so the
extreme arguments over the numerical range are arctan of the extreme
eigenvalues of L^{-1} B L^{-*} with L = chol(A): the representation
Y = S(I + iT)S* read backwards.  The accretive rotation comes from the
congruence canonical form: a matrix X with 0 outside W(X) is *congruent
to a diagonal unitary diag(e^{i theta_k}) (C. R. Johnson and S. Furtado,
"A generalization of Sylvester's law of inertia", Linear Algebra Appl.,
2001), the angular span of W(X) is [min theta_k, max theta_k], and
the e^{2i theta_k} are the eigenvalues of the cosquare X^{-*} X.

``rotation_to_sector`` and ``sector_index`` take one matrix or several of
one size, and run several as lanes of one batch: each LAPACK step is one
stacked call, every reduction stays per matrix, and each result is bit
for bit that of a call with its matrix alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, adjoint, as_matrix, as_stack, block2x2, cartesian_decompose, cartesian_parts

__all__ = [
    "NotSectorialError",
    "SectorInfo",
    "accretive_gate",
    "sector_index",
    "rotation_to_sector",
    "tan_block",
    "sec_block",
]

# Strict accretivity margin on lambda_min of the unit-diagonal scaled
# Re X, relative to the Frobenius norm of the equally scaled X.
ACCRETIVE_RTOL = 1e-12

# Indices this close to pi/2 are rejected: sec/tan factors blow up.
_BOUNDARY_MARGIN = 1e-10


class NotSectorialError(DomainError):
    """No rotation makes the numerical range fit in a proper sector."""


@dataclass(frozen=True)
class SectorInfo:
    """Sector data: the index and the witnessing rotation.

    ``rotation_z`` has unit modulus and ``index_alpha`` is the angular
    half-width of a sector containing W(rotation_z * X).  For results of
    ``sector_index`` the rotation is 1 and the index is the plain
    sectoriality index of X itself.
    """

    index_alpha: float
    rotation_z: complex


def _arg_extremes(A: np.ndarray, B: np.ndarray) -> tuple[list[float], list[float]]:
    """(min, max) of arg <Yx, x> over x != 0 for each accretive Y = A + iB of a stack.

    arg <Yx, x> = arctan(<Bx, x> / <Ax, x>), and the Rayleigh quotient
    <Bx, x> / <Ax, x> ranges exactly over the eigenvalues of L^{-1} B L^{-*}
    with L = chol(A).  A is first scaled to unit diagonal (a congruence,
    which leaves the quotient's range unchanged), so inputs that are badly
    scaled only through a diagonal congruence keep full accuracy.
    """
    d = 1.0 / np.sqrt(A.diagonal(axis1=-2, axis2=-1).real)
    L = np.linalg.cholesky(d[..., :, None] * A * d[..., None, :])
    W = np.linalg.solve(L, d[..., :, None] * B * d[..., None, :])
    M = np.linalg.solve(L, adjoint(W))
    lam = np.linalg.eigvalsh((M + adjoint(M)) / 2)
    return [math.atan(x) for x in lam[:, 0]], [math.atan(x) for x in lam[:, -1]]


def accretive_gate(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict accretivity test of X = A + iB, batched over leading axes.

    Returns (passes, lambda_min(D A D)) with D = diag(A)^{-1/2}: the test
    is lambda_min(D A D) > ACCRETIVE_RTOL * ||D X D||_F.  Scaling to unit
    diagonal (as ``_arg_extremes`` does) is a congruence, so the verdict
    does not change under X -> c D' X D' for c > 0 and positive diagonal
    D'.  A nonpositive diagonal entry already rules accretivity out; its
    lane is left unscaled, and its lambda_min is then nonpositive.
    """
    a = A.diagonal(axis1=-2, axis2=-1).real
    d = 1.0 / np.sqrt(np.where(a > 0.0, a, 1.0))
    S = d[..., :, None] * d[..., None, :]
    As = S * A
    Bs = S * B
    lam = np.linalg.eigvalsh(As)[..., 0]
    scale = np.hypot(np.linalg.norm(As, axis=(-2, -1)), np.linalg.norm(Bs, axis=(-2, -1)))
    return lam > ACCRETIVE_RTOL * scale, lam


def _lockstep(lanes, X, more):
    """``lanes`` run on the stack of X, *more: one SectorInfo, or a tuple of them.

    ``lanes`` raises when any matrix of its stack fails.  With several
    matrices each is then redone alone, in order, so the error raised is
    the one the first failing matrix raises alone.
    """
    Xs = as_stack(X, *more)
    try:
        infos = lanes(Xs)
    except ValueError:
        if more:
            for k in range(len(Xs)):
                lanes(Xs[k : k + 1])
        raise
    return infos[0] if len(infos) == 1 else tuple(infos)


def _boundary_check(index: float) -> None:
    if index >= math.pi / 2 - _BOUNDARY_MARGIN:
        raise NotSectorialError(
            f"sector index {index:.12f} is within {_BOUNDARY_MARGIN:g} of pi/2"
        )


def sector_index(X, *more) -> SectorInfo | tuple[SectorInfo, ...]:
    """Sectoriality index of an accretive matrix.

    The index is the largest |arg w| over the numerical range, computed
    exactly (up to rounding) from one Cholesky factorization and one
    Hermitian eigenproblem.  Raises DomainError when ``accretive_gate``
    rejects X.

    Several matrices of one size give a tuple, one SectorInfo per
    matrix, from one stacked gate, factorization and eigensolve; each is
    bit for bit the result of a call with that matrix alone, and a
    failing matrix raises as it does alone (the first one, in order).
    """
    return _lockstep(_index_lanes, X, more)


def _index_lanes(Xs: np.ndarray) -> list[SectorInfo]:
    A, B = cartesian_parts(Xs)
    passes, lam_scaled = accretive_gate(A, B)
    for ok, lam in zip(passes, lam_scaled):
        if not ok:
            raise DomainError(
                f"matrix is not accretive: lambda_min(D Re X D) = {float(lam):.6e}, "
                f"D = diag(Re X)^(-1/2), is not positive "
                f"(threshold {ACCRETIVE_RTOL:g} * ||D X D||_F)"
            )
    infos = []
    for a_min, a_max in zip(*_arg_extremes(A, B)):
        index = max(a_max, -a_min, 0.0)
        _boundary_check(index)
        infos.append(SectorInfo(index, complex(1.0, 0.0)))
    return infos


def _canonical_rotations(Xs: np.ndarray) -> list[float]:
    """Rotation phi0 centring the canonical angles of X on the real axis, per matrix.

    If 0 is not in W(X), X = S diag(e^{i theta_k}) S* and the eigenvectors
    of the cosquare X^{-*} X are v_k = S^{-*} e_k, so v_k* X v_k is a
    positive multiple of e^{i theta_k}: its argument gives theta_k itself,
    not just 2 theta_k mod 2 pi.  The canonical angles lie on an arc of
    width below pi, the complement of the largest gap between them, and
    phi0 is minus the arc's centre.  For other X the returned angle is
    meaningless; callers gate it.  Raises LinAlgError when a matrix of
    the stack is singular.
    """
    _, Vs = np.linalg.eig(np.linalg.solve(adjoint(Xs), Xs))
    # One einsum per matrix keeps the summation order of a single call.
    w = [np.einsum("ik,ij,jk->k", V.conj(), X, V) for X, V in zip(Xs, Vs)]
    theta = np.sort(np.angle(w), axis=-1)
    gaps = np.concatenate([theta[:, 1:], theta[:, :1] + 2.0 * math.pi], axis=-1) - theta
    lanes = np.arange(len(theta))
    k = np.argmax(gaps, axis=-1)
    start, widest = theta[lanes, (k + 1) % theta.shape[-1]], gaps[lanes, k]
    return [(-(float(a) + (2.0 * math.pi - float(g)) / 2.0)) % (2.0 * math.pi) for a, g in zip(start, widest)]


def rotation_to_sector(X, *more) -> SectorInfo | tuple[SectorInfo, ...]:
    """Unit-modulus z minimizing the sectoriality index of zX.

    An accretive rotation e^{i*phi0} X comes from the canonical angles of
    X (``_canonical_rotations``) and is checked with ``accretive_gate``.
    The index is then exact: rotating X shifts every argument of its
    numerical range by phi, so on the accretive arc the index of
    e^{i*phi} X is the maximum of two linear functions of phi and its
    minimum is half the angular width of the range, attained at the
    bisecting rotation.  Raises NotSectorialError when X is singular, no
    rotation is accretive, or the minimal index is within 1e-10 of pi/2.

    Several matrices of one size give a tuple, one SectorInfo per
    matrix: the cosquare solve and eigensolve, the gate, the
    factorization and the eigensolve of the index are each one stacked
    call.  Each result is bit for bit that of a call with its matrix
    alone, and a failing matrix raises as it does alone (the first one,
    in order).
    """
    return _lockstep(_rotation_lanes, X, more)


def _rotation_lanes(Xs: np.ndarray) -> list[SectorInfo]:
    try:
        phi0 = _canonical_rotations(Xs)
    except np.linalg.LinAlgError:
        raise NotSectorialError(
            "not sectorial: X is numerically singular, so 0 lies in W(X)"
        ) from None
    A0, B0 = cartesian_parts(np.exp(1j * np.array(phi0))[:, None, None] * Xs)
    passes, lam_scaled = accretive_gate(A0, B0)
    for ok, lam in zip(passes, lam_scaled):
        if not ok:
            raise NotSectorialError(
                "not sectorial: no rotation z with Re(zX) positive definite "
                f"(at the canonical rotation, lambda_min(D Re(zX) D) = {float(lam):.6e})"
            )
    infos = []
    for phi, a_min, a_max in zip(phi0, *_arg_extremes(A0, B0)):
        index = max(0.0, (a_max - a_min) / 2.0)
        _boundary_check(index)
        phi_star = (phi - (a_max + a_min) / 2.0) % (2.0 * math.pi)
        infos.append(SectorInfo(index, complex(np.exp(1j * phi_star))))
    return infos


def _check_alpha(alpha: float) -> float:
    if not (0.0 <= alpha < math.pi / 2):
        raise ValueError(f"alpha must lie in [0, pi/2), got {alpha}")
    return float(alpha)


def tan_block(X, alpha: float) -> np.ndarray:
    """Block [[tan(a) Re X, Im X], [Im X, tan(a) Re X]].

    Positive semidefinite exactly when the numerical range of X lies in
    the sector of half-width a; the harness certifies that with the
    smallest eigenvalue from ``eigvalsh``.
    """
    alpha = _check_alpha(alpha)
    X = as_matrix(X)
    re, im = cartesian_decompose(X)
    t = math.tan(alpha) * re
    return block2x2(t, im, im, t)


def sec_block(X, alpha: float) -> np.ndarray:
    """Block [[sec(a) Re X, X], [X*, sec(a) Re X]].

    Positive semidefinite exactly when the numerical range of X lies in
    the sector of half-width a.
    """
    alpha = _check_alpha(alpha)
    X = as_matrix(X)
    re, _ = cartesian_decompose(X)
    d = (1.0 / math.cos(alpha)) * re
    return block2x2(d, X, X.conj().T, d)
