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
the pair (Re X, Im X) is definite, and ``_accretive_rotations`` rotates
by minus the centre of the arc of arguments that the known points of
W(X) span, starting from the diagonal entries; each try the gate does
not certify adds the point of the lambda_min eigenvector of its scaled
matrix, at least pi/2 from that centre, so a class index alpha takes at
most ceil(log2(pi / (pi - 2 alpha))) + 1 tries (after the arc algorithm
for definite pairs of Guo, Higham and Tisseur, SIAM J. Matrix Anal.
Appl. 31(3), 2009).  Points spanning pi or more put 0 in W(X).

Both take one matrix or several of one size, and run several as lanes
of one batch in one lanes function: each LAPACK step is one stacked call,
every reduction stays per matrix, and each result is bit for bit that of
a call with its matrix alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DomainError,
    adjoint,
    as_matrix,
    as_stack,
    block2x2,
    cartesian_decompose,
    cartesian_parts,
    pd_certificate,
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


def _arg_extremes(Bs: np.ndarray, L: np.ndarray) -> tuple[list[float], list[float]]:
    """(min, max) of arg <Yx, x> over x != 0 for each accretive Y = A + iB of a stack.

    Bs = D B D and L L* = D A D - c I are the gate's scaling and factor
    (``pd_certificate`` of A).  arg <Yx, x> = arctan(<Bx, x> / <Ax, x>),
    a ratio that a congruence leaves unchanged, and the Rayleigh quotient
    <Bs x, x> / <L L* x, x> ranges exactly over the eigenvalues of
    L^{-1} Bs L^{-*}: one inverse and one eigensolve.  The shift makes
    L L* smaller than D A D, so the computed extremes can only widen;
    harness._verified certifies the index either way.
    """
    Li = np.linalg.inv(L)
    M = Li @ Bs @ adjoint(Li)
    lam = np.linalg.eigvalsh((M + adjoint(M)) / 2)
    return [math.atan(x) for x in lam[:, 0]], [math.atan(x) for x in lam[:, -1]]


def _lockstep(rotate: bool, X, more):
    """``_sector_lanes`` on the stack of X, *more: one SectorInfo, or a tuple of them.

    ``_sector_lanes`` raises when any matrix of its stack fails.  With
    several matrices each is then redone alone, in order, so the error
    raised is the one the first failing matrix raises alone.  The error
    carries ``failed_at``, that matrix's position, and ``before``, the
    SectorInfo of each matrix before it, each computed alone.
    """
    Xs = as_stack(X, *more)
    try:
        infos = _sector_lanes(Xs, rotate)
    except ValueError as exc:
        error, before = exc, []
        if more:
            for k in range(len(Xs)):
                try:
                    before.append(_sector_lanes(Xs[k : k + 1], rotate)[0])
                except ValueError as alone:
                    error = alone
                    break
        error.failed_at, error.before = len(before), tuple(before)
        raise error
    return infos[0] if len(infos) == 1 else tuple(infos)


def _boundary_check(index: float) -> None:
    if index >= math.pi / 2 - _BOUNDARY_MARGIN:
        raise NotSectorialError(
            f"sector index {index:.12f} is within {_BOUNDARY_MARGIN:g} of pi/2"
        )


def sector_index(X, *more) -> SectorInfo | tuple[SectorInfo, ...]:
    """Sectoriality index of an accretive matrix.

    The index is the largest |arg w| over the numerical range, computed
    exactly (up to rounding) from the gate's Cholesky factor, one inverse
    and one Hermitian eigenproblem.  Raises DomainError when the gate,
    ``pd_certificate`` of Re X, does not certify X accretive.

    Several matrices of one size give a tuple, one SectorInfo per
    matrix, from one stacked gate, inverse and eigensolve; each is bit
    for bit the result of a call with that matrix alone, and a failing
    matrix raises as it does alone (the first one, in order).  The error
    raised carries ``failed_at``, the position of that matrix, and
    ``before``, the SectorInfo of each matrix before it.
    """
    return _lockstep(False, X, more)


def _sector_lanes(Xs: np.ndarray, rotate: bool) -> list[SectorInfo]:
    """SectorInfo of each matrix: ``rotation_to_sector``'s when ``rotate``, else ``sector_index``'s."""
    if rotate:
        phi, Bs, L = _accretive_rotations(Xs)
    else:
        phi = [0.0] * len(Xs)
        A, B = cartesian_parts(Xs)
        passes, S, L = pd_certificate(A)
        if not passes.all():
            k = int(np.argmin(passes))
            raise DomainError(
                f"matrix is not accretive: lambda_min(D Re X D) = {np.linalg.eigvalsh(unit_scaled(S[k], A[k], A[k]))[0]:.6e}, "
                f"D = diag(Re X)^(-1/2), is not positive (shifted Cholesky test)"
            )
        Bs = unit_scaled(S, A, B)
    infos = []
    for p, a_min, a_max in zip(phi, *_arg_extremes(Bs, L)):
        if rotate:
            index = max(0.0, (a_max - a_min) / 2.0)
            z = complex(np.exp(1j * ((p - (a_max + a_min) / 2.0) % (2.0 * math.pi))))
        else:
            index, z = max(a_max, -a_min, 0.0), complex(1.0, 0.0)
        _boundary_check(index)
        infos.append(SectorInfo(index, z))
    return infos


def _known_arc(Xs: np.ndarray) -> list[list[float]]:
    """[lo, hi], the shortest arc of arguments holding every diagonal entry, per matrix.

    Each diagonal entry e_k* X e_k is a point of W(X).  The arc is the
    complement of the widest gap between the sorted arguments; it is
    only checked by ``_check_arc``.  Raises NotSectorialError when a
    diagonal entry is 0, which then lies in W(X).
    """
    d = Xs.diagonal(axis1=-2, axis2=-1)
    if not d.all():
        raise NotSectorialError("not sectorial: X has a zero diagonal entry, so 0 lies in W(X)")
    theta = np.sort(np.angle(d), axis=-1)
    gaps = np.concatenate([theta[:, 1:], theta[:, :1] + 2.0 * math.pi], axis=-1) - theta
    lanes = np.arange(len(theta))
    k = np.argmax(gaps, axis=-1)
    start, widest = theta[lanes, (k + 1) % theta.shape[-1]], gaps[lanes, k]
    return [[float(a), float(a) + 2.0 * math.pi - float(g)] for a, g in zip(start, widest)]


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


def _accretive_rotations(Xs: np.ndarray) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Rotation phi with e^{i phi} X accretive, D Im(e^{i phi} X) D and the gate's factor L, per matrix.

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
    widen K (the gate failed only within its shift), or a search past the
    tries of an index pi/2 - _BOUNDARY_MARGIN, raises NotSectorialError.
    Each try is one stacked gate over the open matrices, and each failed
    try one stacked eigh of the failing ones.
    """
    arcs = _known_arc(Xs)
    phi, Bs0, L0 = [0.0] * len(Xs), np.empty_like(Xs), np.empty_like(Xs)
    tries = math.ceil(math.log2(math.pi / (2.0 * _BOUNDARY_MARGIN))) + 1
    open_ = list(range(len(Xs)))
    for _ in range(tries):
        for k in open_:
            _check_arc(arcs[k])
            phi[k] = -(arcs[k][0] + arcs[k][1]) / 2.0
        A, B = cartesian_parts(np.exp(1j * np.array([phi[k] for k in open_]))[:, None, None] * Xs[open_])
        passes, S, L = pd_certificate(A)
        Bs = unit_scaled(S, A, B)
        Bs0[open_], L0[open_] = Bs, L
        failed = [j for j, ok in enumerate(passes) if not ok]
        if not failed:
            return phi, Bs0, L0
        As = unit_scaled(S[failed], A[failed], A[failed])
        lam, x = np.linalg.eigh(As)
        for j, Asj, Bsj, lamj, xj in zip(failed, As, Bs[failed], lam[:, 0], x[..., 0]):
            k, arc = open_[j], arcs[open_[j]]
            w = complex(np.vdot(xj, Asj @ xj).real, np.vdot(xj, Bsj @ xj).real)
            if w == 0:
                raise NotSectorialError(
                    "not sectorial: the gate's lambda_min eigenvector gives the point 0, so 0 lies in W(X)"
                )
            r, h = math.atan2(w.imag, w.real), (arc[1] - arc[0]) / 2.0
            if abs(r) <= h:
                raise NotSectorialError(
                    "not sectorial: no rotation z with Re(zX) positive definite found (at the centre "
                    f"of the known arc, lambda_min(D Re(zX) D) = {float(lamj):.6e}, and its eigenvector "
                    "gives no point of W(X) outside that arc)"
                )
            arc[r > 0] = -phi[k] + r
        open_ = [open_[j] for j in failed]
    for k in open_:
        _check_arc(arcs[k])
    raise NotSectorialError(
        f"not sectorial: no accretive rotation in {tries} tries, as many as an index within "
        f"{_BOUNDARY_MARGIN:g} of pi/2 takes"
    )


def rotation_to_sector(X, *more) -> SectorInfo | tuple[SectorInfo, ...]:
    """Unit-modulus z minimizing the sectoriality index of zX.

    An accretive rotation e^{i*phi0} X is found by Cholesky tests and
    Hermitian eigensolves (``_accretive_rotations``): each try rotates by
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

    Several matrices of one size give a tuple, one SectorInfo per
    matrix: each try's gate and eigenvector solve, and the inverse and
    eigensolve of the index, are each one stacked call over the matrices
    still open.  Each result is bit for bit that of a call with
    its matrix alone, and a failing matrix raises as it does alone (the
    first one, in order).  The error raised carries ``failed_at``, the
    position of that matrix, and ``before``, the SectorInfo of each
    matrix before it.
    """
    return _lockstep(True, X, more)


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
