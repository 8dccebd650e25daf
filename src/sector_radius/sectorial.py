"""Accretivity, sectoriality indices, and sector membership witnesses.

A matrix with numerical range in the open right half-plane (accretive)
has a sectoriality index: the largest |arg w| over its numerical range.
More generally a matrix belongs to the rotated sector class when some
unit-modulus z makes zX accretive; the minimal achievable index and the
witnessing rotation are what ``rotation_to_sector`` computes.

Indices are exact.  For accretive Y = A + iB, arg <Yx, x> is
arctan(<Bx, x> / <Ax, x>), so the extreme arguments over the numerical
range are arctan of the extreme eigenvalues of L^{-1} B L^{-*} with
L = chol(A): the representation Y = S(I + iT)S* read backwards.  Only the
search for an accretive rotation in ``rotation_to_sector`` samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, as_matrix, block2x2, cartesian_decompose, frobenius

__all__ = [
    "NotSectorialError",
    "SectorInfo",
    "sector_index",
    "rotation_to_sector",
    "tan_block",
    "sec_block",
]

# Strict accretivity margin on lambda_min(Re X), relative to ||X||_F.
ACCRETIVE_RTOL = 1e-12

# Indices this close to pi/2 are rejected: sec/tan factors blow up.
_BOUNDARY_MARGIN = 1e-10


class NotSectorialError(DomainError):
    """No rotation makes the numerical range fit in a proper sector."""


@dataclass(frozen=True)
class SectorInfo:
    """Sector data: accretivity, index, and the witnessing rotation.

    ``rotation_z`` has unit modulus and ``index_alpha`` is the angular
    half-width of a sector containing W(rotation_z * X).  For results of
    ``sector_index`` the rotation is 1 and the index is the plain
    sectoriality index of X itself.
    """

    accretive: bool
    index_alpha: float
    rotation_z: complex
    lambda_min_re: float


def _arg_extremes(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """(min, max) of arg <Yx, x> over x != 0 for accretive Y = A + iB.

    arg <Yx, x> = arctan(<Bx, x> / <Ax, x>), and the Rayleigh quotient
    <Bx, x> / <Ax, x> ranges exactly over the eigenvalues of L^{-1} B L^{-*}
    with L = chol(A).  A is first scaled to unit diagonal (a congruence,
    which leaves the quotient's range unchanged), so inputs that are badly
    scaled only through a diagonal congruence keep full accuracy.
    """
    d = 1.0 / np.sqrt(A.diagonal().real)
    L = np.linalg.cholesky(d[:, None] * A * d)
    W = np.linalg.solve(L, d[:, None] * B * d)
    M = np.linalg.solve(L, W.conj().T)
    lam = np.linalg.eigvalsh((M + M.conj().T) / 2)
    return math.atan(lam[0]), math.atan(lam[-1])


def sector_index(X) -> SectorInfo:
    """Sectoriality index of an accretive matrix.

    The index is the largest |arg w| over the numerical range, computed
    exactly (up to rounding) from one Cholesky factorization and one
    Hermitian eigenproblem.  Raises DomainError when Re X is not positive
    definite.
    """
    X = as_matrix(X)
    A, B = cartesian_decompose(X)
    lam_min = float(np.linalg.eigvalsh(A)[0])
    if lam_min <= ACCRETIVE_RTOL * frobenius(X):
        raise DomainError(
            f"matrix is not accretive: lambda_min(Re X) = {lam_min:.6e} "
            f"is not positive (threshold {ACCRETIVE_RTOL:g} * ||X||_F)"
        )
    a_min, a_max = _arg_extremes(A, B)
    index = max(a_max, -a_min, 0.0)
    if index >= math.pi / 2 - _BOUNDARY_MARGIN:
        raise NotSectorialError(
            f"sector index {index:.12f} is within {_BOUNDARY_MARGIN:g} of pi/2"
        )
    return SectorInfo(True, index, complex(1.0, 0.0), lam_min)


def rotation_to_sector(X, phi_samples: int = 4096) -> SectorInfo:
    """Unit-modulus z minimizing the sectoriality index of zX.

    Scans phi over [0, 2*pi) for rotations making e^{i*phi} X accretive,
    then shrinks the index exactly: rotating X shifts every argument of
    its numerical range by phi, so on the accretive arc the index of
    e^{i*phi} X is the maximum of two linear functions of phi and its
    minimum is half the angular width of the range, attained at the
    bisecting rotation.  Raises NotSectorialError when no rotation is
    accretive or the minimal index is within 1e-10 of pi/2.
    """
    X = as_matrix(X)
    if not isinstance(phi_samples, (int, np.integer)) or phi_samples < 8:
        raise ValueError(f"phi_samples must be an integer >= 8, got {phi_samples}")
    A, B = cartesian_decompose(X)
    threshold = ACCRETIVE_RTOL * frobenius(X)
    phis = 2.0 * math.pi * np.arange(phi_samples) / phi_samples
    c = np.cos(phis)
    s = np.sin(phis)
    H = c[:, None, None] * A - s[:, None, None] * B
    lam_min = np.linalg.eigvalsh(H)[:, 0]
    k_best = int(np.argmax(lam_min))
    if not (lam_min[k_best] > threshold):
        raise NotSectorialError(
            "not sectorial: no rotation z with Re(zX) positive definite "
            f"(best lambda_min over {phi_samples} rotations: {lam_min[k_best]:.6e})"
        )
    phi0 = float(phis[k_best])
    a_min, a_max = _arg_extremes(*cartesian_decompose(np.exp(1j * phi0) * X))
    index = max(0.0, (a_max - a_min) / 2.0)
    if index >= math.pi / 2 - _BOUNDARY_MARGIN:
        raise NotSectorialError(
            f"sector index {index:.12f} is within {_BOUNDARY_MARGIN:g} of pi/2"
        )
    phi_star = (phi0 - (a_max + a_min) / 2.0) % (2.0 * math.pi)
    z = complex(np.exp(1j * phi_star))
    Az = np.cos(phi_star) * A - np.sin(phi_star) * B
    lam_min_re = float(np.linalg.eigvalsh(Az)[0])
    accretive = bool(lam_min[0] > threshold)
    return SectorInfo(accretive, index, z, lam_min_re)


def _check_alpha(alpha: float) -> float:
    if not (0.0 <= alpha < math.pi / 2):
        raise ValueError(f"alpha must lie in [0, pi/2), got {alpha}")
    return float(alpha)


def tan_block(X, alpha: float) -> np.ndarray:
    """Block [[tan(a) Re X, Im X], [Im X, tan(a) Re X]].

    Positive semidefinite exactly when the numerical range of X lies in
    the sector of half-width a; callers test PSD with ``is_psd``.
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
