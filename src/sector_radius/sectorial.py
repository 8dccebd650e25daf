"""Accretivity, sectoriality indices, and sector membership witnesses.

A matrix with numerical range in the open right half-plane (accretive)
has a sectoriality index: the largest |arg w| over its numerical range.
More generally a matrix belongs to the rotated sector class when some
unit-modulus z makes zX accretive; the minimal achievable index and the
witnessing rotation are what ``rotation_to_sector`` computes.

Everything here is exact up to rounding; nothing is sampled.  One test
decides accretivity: ``linalg.pd_certificate`` of Re(zX), a Cholesky
factorization of the unit-diagonal scaled D Re(zX) D less a shift
derived from n and the unit roundoff, which proves positive
definiteness without any LAPACK constant.  Its factor L also gives the
index.  For accretive Y = A + iB, arg <Yx, x> is arctan(<Bx, x> / <Ax,
x>), so the extreme arguments over the numerical range are arctan of the
extreme eigenvalues of L^{-1} D B D L^{-*}: the representation
Y = S(I + iT)S* read backwards, from one inverse and one eigensolve.

``sector_index`` runs that gate once, on X itself.  ``rotation_to_sector``
first searches for an accretive rotation: 0 is outside W(X) exactly when
the pair (Re X, Im X) is definite, and ``_accretive_rotation`` rotates
by minus the centre of the arc of arguments that the known points of
W(X) span, starting from the diagonal entries; each try the gate does
not certify adds the point of the lambda_min eigenvector of its scaled
matrix, at least pi/2 from that centre, so a class index alpha takes at
most ceil(log2(pi / (pi - 2 alpha))) + 1 tries (after the arc algorithm
for definite pairs of Guo, Higham and Tisseur, SIAM J. Matrix Anal.
Appl. 31(3), 2009).  Points spanning pi or more put 0 in W(X).

Both take one matrix, and hand LAPACK a contiguous stack of one copied
from it, so a result has the same bits whatever the input's memory order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DomainError,
    adjoint,
    as_matrix,
    block2x2,
    cartesian_decompose,
    cartesian_parts,
    pd_certificate,
    scaled_lambda_min,
    unit_scaled,
)

__all__ = [
    "NotSectorialError",
    "SectorInfo",
    "sector_index",
    "rotation_to_sector",
    "tan_block",
    "sec_block",
]

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


def _scaled_imag(d: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D B D for B = Im Y, Y = zX, D the scaling of ``pd_certificate`` of Re Y; raises where it is not finite.

    It raises NotSectorialError, as the index is then within far less
    than _BOUNDARY_MARGIN of pi/2.  Each d_j is at least 2^-512, so an entry of D B D that is not finite
    has exact modulus b >= 2^512.  On the diagonal, b is |tan arg Y_ii|.
    Off it, let C be the 2 x 2 principal submatrix of D Y D through the
    entry and c = tr(C) / 2: W(C) - c is symmetric about 0 and holds a
    point v with |v| >= b/2 (a numerical radius is at least half of any
    entry), and c +- v lie in W(D Y D), whose arguments are those of
    W(Y).  Where the gate passed, Re c = 1 and W(C) lies in the right
    half-plane, so |Re v| < 1 and one of c +- v is within 4/b of the
    imaginary axis.  In a rotation search, ``_check_arc`` keeps every
    |tan arg Y_ii| below 1e10, so |c| <= 1e10 and the arguments of c +- v
    are within 4e10/b of opposite, whether or not the gate passed: W(X)
    spans an arc within that of pi.
    """
    Bs = unit_scaled(d, B)
    if not np.isfinite(Bs).all():
        raise NotSectorialError(
            f"sector index is within {_BOUNDARY_MARGIN:g} of pi/2: D Im(zX) D is not finite, "
            "D = diag(Re zX)^(-1/2)"
        )
    return Bs


def _arg_extremes(Bs: np.ndarray, L: np.ndarray) -> tuple[float, float]:
    """(min, max) of arg <Yx, x> over x != 0 for an accretive Y = A + iB.

    Bs = D B D and L L* = D A D - c I are the gate's scaling and factor.
    arg <Yx, x> = arctan(<Bx, x> / <Ax, x>), a ratio that a congruence
    leaves unchanged, and the Rayleigh quotient <Bs x, x> / <L L* x, x>
    ranges exactly over the eigenvalues of L^{-1} Bs L^{-*}: one inverse
    and one eigensolve.  The shift makes L L* smaller than D A D, so the
    computed extremes can only widen; harness._verified certifies the
    index either way.
    """
    Li = np.linalg.inv(L)
    M = Li @ Bs @ adjoint(Li)
    lam = np.linalg.eigvalsh((M + adjoint(M)) / 2)
    return math.atan(lam[0, 0]), math.atan(lam[0, -1])


def _boundary_check(index: float) -> None:
    if not index < math.pi / 2 - _BOUNDARY_MARGIN:
        raise NotSectorialError(
            f"sector index {index:.12f} is within {_BOUNDARY_MARGIN:g} of pi/2"
        )


def sector_index(X) -> SectorInfo:
    """Sectoriality index of an accretive matrix.

    The index is the largest |arg w| over the numerical range, computed
    exactly (up to rounding) from the gate's Cholesky factor, one inverse
    and one Hermitian eigenproblem.  Raises DomainError when the gate,
    ``pd_certificate`` of Re X, does not certify X accretive, and
    NotSectorialError when the index is within 1e-10 of pi/2.
    """
    A, B = cartesian_parts(np.array([as_matrix(X)]))
    passes, d, L = pd_certificate(A)
    if not passes[0]:
        raise DomainError(
            f"matrix is not accretive: lambda_min(D Re X D) = {scaled_lambda_min(d, A)[0]:.6e}, "
            f"D = diag(Re X)^(-1/2), is not positive (shifted Cholesky test)"
        )
    a_min, a_max = _arg_extremes(_scaled_imag(d, B), L)
    index = max(a_max, -a_min, 0.0)
    _boundary_check(index)
    return SectorInfo(index, complex(1.0, 0.0))


def _known_arc(X: np.ndarray) -> list[float]:
    """[lo, hi], the shortest arc of arguments holding every diagonal entry.

    Each diagonal entry e_k* X e_k is a point of W(X).  The arc is the
    complement of the widest gap between the sorted arguments; it is
    only checked by ``_check_arc``.  Raises NotSectorialError when a
    diagonal entry is 0, which then lies in W(X).
    """
    d = X.diagonal()
    if not d.all():
        raise NotSectorialError("not sectorial: X has a zero diagonal entry, so 0 lies in W(X)")
    theta = np.sort(np.angle(d))
    gaps = np.concatenate([theta[1:], theta[:1] + 2.0 * math.pi]) - theta
    k = int(np.argmax(gaps))
    start = float(theta[(k + 1) % len(theta)])
    return [start, start + 2.0 * math.pi - float(gaps[k])]


def _check_arc(arc: list[float]) -> None:
    """Refuse an arc of arguments of points of W(X) that no proper sector holds.

    Points whose arguments span pi or more have 0 in their convex hull,
    so in W(X).  The sector index of X is at least half the span, so a
    span within 2 _BOUNDARY_MARGIN of pi is refused as ``_boundary_check``
    refuses the index.
    """
    width = arc[1] - arc[0]
    if width >= math.pi:
        raise NotSectorialError(
            f"not sectorial: points of W(X) span an arc of arguments {width:.12f} >= pi, so 0 lies in W(X)"
        )
    _boundary_check(width / 2.0)


def _accretive_rotation(Xs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Rotation phi with e^{i phi} X accretive, D Im(e^{i phi} X) D and the gate's factor L.

    Known points of W(X) span an arc K of arguments, first the diagonal
    entries (``_known_arc``).  Each try rotates by minus the centre of K
    and runs the gate, ``pd_certificate`` of Re(e^{i phi} X).  When the
    gate fails, the lambda_min eigenvector x of D Re(e^{i phi} X) D gives
    the point (Dx)* X (Dx) of W(X); its rotated real part is lambda_min
    |x|^2 <= 0 up to the gate's shift, so it lies at least pi/2 from the
    centre of K, and K grows to at least |K|/2 + pi/2.  After j failed
    tries pi - |K| <= pi / 2^j, while |K| is at most twice the class index
    alpha, so an X with alpha < pi/2 takes at most
    ceil(log2(pi / (pi - 2 alpha))) + 1 tries (the arc algorithm for
    definite pairs of Guo, Higham and Tisseur, SIAM J. Matrix Anal. Appl.
    31(3), 2009).  ``_check_arc`` refuses each K; a point that does not
    widen K (the gate failed only within its shift), a try whose D Im(e^{i
    phi} X) D is not finite (``_scaled_imag``), or a search past the tries
    of an index pi/2 - _BOUNDARY_MARGIN, raises NotSectorialError.  ``Xs``
    is a stack of one X.
    """
    arc = _known_arc(Xs[0])
    tries = math.ceil(math.log2(math.pi / (2.0 * _BOUNDARY_MARGIN))) + 1
    for _ in range(tries):
        _check_arc(arc)
        phi = -(arc[0] + arc[1]) / 2.0
        A, B = cartesian_parts(np.exp(1j * np.array([phi]))[:, None, None] * Xs)
        passes, d, L = pd_certificate(A)
        Bs = _scaled_imag(d, B)
        if passes[0]:
            return phi, Bs, L
        As = unit_scaled(d, A)
        lam, x = np.linalg.eigh(As)
        x = x[0, :, 0]
        w = complex(np.vdot(x, As[0] @ x).real, np.vdot(x, Bs[0] @ x).real)
        if w == 0:
            raise NotSectorialError(
                "not sectorial: the gate's lambda_min eigenvector gives the point 0, so 0 lies in W(X)"
            )
        r, h = math.atan2(w.imag, w.real), (arc[1] - arc[0]) / 2.0
        if abs(r) <= h:
            raise NotSectorialError(
                "not sectorial: no rotation z with Re(zX) positive definite found (at the centre "
                f"of the known arc, lambda_min(D Re(zX) D) = {float(lam[0, 0]):.6e}, and its eigenvector "
                "gives no point of W(X) outside that arc)"
            )
        arc[r > 0] = -phi + r
    _check_arc(arc)
    raise NotSectorialError(
        f"not sectorial: no accretive rotation in {tries} tries, as many as an index within "
        f"{_BOUNDARY_MARGIN:g} of pi/2 takes"
    )


def rotation_to_sector(X) -> SectorInfo:
    """Unit-modulus z minimizing the sectoriality index of zX.

    An accretive rotation e^{i*phi0} X is found by Cholesky tests and
    Hermitian eigensolves (``_accretive_rotation``): each try rotates by
    minus the centre of the arc spanned by the known points of W(X),
    starting from the diagonal, and a try that the gate does not certify
    adds the point of its lambda_min eigenvector, at least pi/2 from that
    centre.  A class index alpha takes at most
    ceil(log2(pi / (pi - 2 alpha))) + 1 tries.
    The index is then exact: rotating X shifts every argument of its
    numerical range by phi, so on the accretive arc the index of
    e^{i*phi} X is the maximum of two linear functions of phi and its
    minimum is half the angular width of the range, attained at the
    bisecting rotation.  Raises NotSectorialError when points of W(X)
    span pi or more (0 lies in W(X)), when no accretive rotation is found,
    or when the minimal index is within 1e-10 of pi/2.
    """
    phi, Bs, L = _accretive_rotation(np.array([as_matrix(X)]))
    a_min, a_max = _arg_extremes(Bs, L)
    index = max(0.0, (a_max - a_min) / 2.0)
    z = complex(np.exp(1j * ((phi - (a_max + a_min) / 2.0) % (2.0 * math.pi))))
    _boundary_check(index)
    return SectorInfo(index, z)


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a Python float; ValueError unless it lies in [0, pi/2) and is not a bool (Python or numpy)."""
    if type(alpha) in (bool, np.bool_) or not (0.0 <= alpha < math.pi / 2):
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
