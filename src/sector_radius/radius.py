"""Numerical range boundary, numerical radius, and its norm generalization.

The central object is the angle profile f(theta) = N(Re(e^{i*theta} X)),
whose supremum over theta defines the generalized numerical radius.  The
profile has period pi, is Lipschitz with constant L = N(Re X) + N(Im X),
and is a pointwise maximum of sinusoids of amplitude at most sup f (one
sinusoid per dual-norm certificate).  omega_n returns a lower bound
``value`` (a profile sample) together with a guaranteed gap
``cert_error`` so that the true supremum lies in
[value, value + cert_error].

The Frobenius profile is a quadratic form in (cos theta, sin theta), so
its supremum is read off a 2x2 Gram matrix with a stated rounding pad.
Every other norm samples a uniform grid first.  A grid that comes out
flat (spread within the target width) asks whether X is circular, that
is unitarily similar to e^{i*phi} X for every phi: a grading K of X's
kernel flag bounds every angle by the best sample plus (h/2) N(KX - XK + X),
h the grid step; the norm vanishes for nilpotent shifts such as Jordan
blocks.  Otherwise each sampled peak of the grid (a cell at least as high
as both cyclic neighbours) is polished with a few safeguarded Newton
steps on the analytic profile (derivatives from one batched
eigendecomposition per step); the Newton steps only make ``value`` good
early.  The guarantee
then comes from one of two upper bounds.  For the operator norm, Ando's
dilation gives it with one Hermitian eigensolve of a 2n x 2n matrix.
Otherwise, and whenever that bound does not close, a subdivision pass
certifies with per-cell upper caps from the sinusoid structure.

omega_n takes any number of same-size matrices and runs them in
lockstep, as lanes of one batch: the norms of the Cartesian parts, the
start grid, each Newton step, each cyclic-reduction step of Ando's bound
and each subdivision round is one batched eigvalsh, eigh or solve over
the lanes still open, and a lane leaves as soon as it is certified.
Stacked LAPACK calls and products act on each matrix alone and every
reduction runs per lane, so each lane's estimate is bit for bit that of
a call with its matrix alone; a single matrix is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LAPACK_BACKWARD, DimensionError, as_matrix, cartesian_decompose
from .norms import NormSpec, OPERATOR, schatten_value

__all__ = [
    "DEFAULT_GRID",
    "RadiusEstimate",
    "RangePoint",
    "radius_profile",
    "omega_n",
    "omega",
    "numerical_range_boundary",
]

# Uniform start cells of omega_n on [0, pi).  Newton polishing and the
# certification pass carry the accuracy; the grid only seeds them.
DEFAULT_GRID = 32

# Newton steps taken from each sampled peak of the start grid before
# certification, and the most peaks polished.
_NEWTON_STEPS = 4
_NEWTON_STARTS = 8

# Eigenvalue gaps (relative to the largest |eigenvalue|) below which two
# branches are treated as one in the second-derivative formulas.
_GAP_FLOOR = 1e-8

# Relative slack added to every certified cap, covering the backward error
# of the dense Hermitian eigensolver on each profile evaluation.
_EIG_SLACK = 1e-13

# Budget of the subdivision pass; exhausting it enlarges cert_error but
# never invalidates it.
_MAX_CELLS = 200000
_MAX_ROUNDS = 48

# Largest batch of matrices handed to one eigvalsh call, which bounds the
# memory of a subdivision round (1024 matrices of 64 x 64 take 64 MiB).
_EIG_BATCH = 1024

# Cyclic-reduction steps allowed for Ando's certificate.  Away from the
# critical level the iteration converges quadratically; a level within
# g_stop of w(X) takes about 20 steps, a nilpotent X about log2(n).
_CR_STEPS = 64

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RadiusEstimate:
    """Certified estimate: value <= sup <= value + cert_error."""

    value: float
    theta_star: float
    cert_error: float
    norm: NormSpec


@dataclass(frozen=True)
class RangePoint:
    """Support point <Xv, v> of the numerical range at angle theta."""

    theta: float
    boundary_point: complex


def _segments(lane: np.ndarray) -> list[tuple[int, int, int]]:
    """(lane, lo, hi) for each lane present in an ascending ``lane`` array.

    Rows lo:hi belong to that lane.  A batch holds a handful of lanes, so
    a plain list is cheaper to walk than arrays.
    """
    segments = []
    stop = 0
    for l, count in enumerate(np.bincount(lane).tolist()):
        if count:
            segments.append((l, stop, stop + count))
            stop += count
    return segments


def _adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def _combine(A: np.ndarray, B: np.ndarray, segments, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows c_k A_l - s_k B_l for the rows lo:hi of each (l, lo, hi) in ``segments``.

    Each lane's rows broadcast that lane's A and B, so no row copies them,
    and every entry is rounded as c * A - s * B rounds it.
    """
    c = c[:, None, None]
    s = s[:, None, None]
    H = np.empty((len(c),) + A.shape[1:], dtype=A.dtype)
    for l, lo, hi in segments:
        rows = H[lo:hi]
        np.multiply(c[lo:hi], A[l], out=rows)
        rows -= s[lo:hi] * B[l]
    return H


def _profile_values(A: np.ndarray, B: np.ndarray, segments, thetas: np.ndarray, p: float) -> np.ndarray:
    """Batched N(cos(t_k) A_l - sin(t_k) B_l) via Hermitian eigenvalues.

    A and B are stacks of Cartesian parts, and the rows lo:hi of each
    (l, lo, hi) in ``segments`` belong to lane l.  At most _EIG_BATCH
    matrices are formed and solved at once; eigvalsh solves each matrix of
    a batch independently, so the values depend neither on the chunking
    nor on which other lanes share a batch.
    """
    out = np.empty(len(thetas))
    for start in range(0, len(thetas), _EIG_BATCH):
        t = thetas[start : start + _EIG_BATCH]
        stop = start + len(t)
        # The part of each lane's rows inside this chunk.
        chunk = [(l, max(lo, start) - start, min(hi, stop) - start) for l, lo, hi in segments]
        chunk = [(l, lo, hi) for l, lo, hi in chunk if lo < hi]
        H = _combine(A, B, chunk, np.cos(t), np.sin(t))
        out[start:stop] = schatten_value(np.abs(np.linalg.eigvalsh(H)), p)
    return out


def radius_profile(spec: NormSpec, X, theta: float) -> float:
    """N(Re(e^{i*theta} X)) = N(cos(theta) Re X - sin(theta) Im X)."""
    X = as_matrix(X)
    A, B = cartesian_decompose(X)
    thetas = np.asarray([float(theta)])
    return float(_profile_values(A[None], B[None], [(0, 0, 1)], thetas, spec.schatten_p)[0])


class _Best:
    """Running argmax of each lane over batched profile evaluations."""

    __slots__ = ("value", "theta")

    def __init__(self, lanes: int):
        self.value = [-math.inf] * lanes
        self.theta = [0.0] * lanes

    def update(self, segments, thetas: np.ndarray, values: np.ndarray) -> None:
        """Fold in samples (thetas, values) over the row ranges in ``segments``."""
        for l, lo, hi in segments:
            i = lo + int(np.argmax(values[lo:hi]))
            if values[i] > self.value[l]:
                self.value[l] = float(values[i])
                self.theta[l] = float(thetas[i])


def _profile_slopes(lam: np.ndarray, C: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second theta-derivatives of the profile branch being polished.

    ``lam`` holds ascending eigenvalues of H(theta) and ``C`` is H'(theta)
    in the eigenbasis.  Since H'' = -H, eigenvalue perturbation theory gives
    lam_i' = C_ii and lam_i'' = -lam_i + 2 sum_{j != i} |C_ji|^2 / (lam_i - lam_j).
    For p = inf the branch is the eigenvalue of largest modulus; for finite p
    it is g = sum |lam_i|^p (same maximizers as the norm), whose second
    derivative is -sum phi'(lam_i) lam_i + sum_ij |C_ij|^2 phi'[lam_i, lam_j]
    with phi = |.|^p and phi'[.,.] the divided difference of phi'.  Each
    lane is scaled by its largest |lam| first, which leaves the Newton step
    unchanged and keeps |lam|^p from overflowing.
    """
    scale = np.abs(lam).max(axis=-1)
    scale = np.where(scale > 0.0, scale, 1.0)
    mu = lam / scale[:, None]
    D = C / scale[:, None, None]
    slope = D.diagonal(axis1=1, axis2=2).real
    W = np.abs(D) ** 2
    gap = mu[:, :, None] - mu[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if math.isinf(p):
            rows = np.arange(len(mu))
            k = np.abs(mu).argmax(axis=-1)
            sign = np.sign(mu[rows, k])
            g = gap[rows, k, :]
            # Exactly or nearly equal eigenvalues carry no usable coupling.
            coupling = np.where(np.abs(g) > _GAP_FLOOR, W[rows, :, k] / g, 0.0).sum(axis=-1)
            return sign * slope[rows, k], sign * (-mu[rows, k] + 2.0 * coupling)
        a = np.abs(mu)
        d_phi = p * a ** (p - 1.0) * np.sign(mu)
        # phi'' at the midpoint stands in for the divided difference of
        # (nearly) equal eigenvalues, including the diagonal i = j.
        mid = 0.5 * (a[:, :, None] + a[:, None, :])
        dd_mid = np.zeros_like(mid) if p == 1.0 else p * (p - 1.0) * mid ** (p - 2.0)
        divided = np.where(
            np.abs(gap) > _GAP_FLOOR, (d_phi[:, :, None] - d_phi[:, None, :]) / gap, dd_mid
        )
        first = (d_phi * slope).sum(axis=-1)
        second = -(d_phi * mu).sum(axis=-1) + (W * divided).sum(axis=(-2, -1))
    return first, second


def _newton_polish(
    A: np.ndarray,
    B: np.ndarray,
    p: float,
    lane: np.ndarray,
    theta: np.ndarray,
    h: float,
    tol: float,
    best: _Best,
) -> None:
    """Safeguarded Newton ascent from each start (lane[k], theta[k]), one batched eigh per step.

    A start steps only where its branch is concave (f'' < 0), and every
    step is clipped to [start - h, start + h].  A start stops once its
    step is below ``tol``; all stop after _NEWTON_STEPS steps.  Every
    evaluated angle feeds ``best``; the certification pass does not rely
    on convergence here, so a stalled start only costs extra rounds there.
    """
    lo = theta - h
    hi = theta + h
    for step in range(_NEWTON_STEPS + 1):
        segments = _segments(lane)
        c = np.cos(theta)
        s = np.sin(theta)
        lam, V = np.linalg.eigh(_combine(A, B, segments, c, s))
        best.update(segments, theta, schatten_value(np.abs(lam), p))
        if step == _NEWTON_STEPS:
            break
        dH = _combine(A, B, segments, -s, c)
        C = _adjoint(V) @ dH @ V
        first, second = _profile_slopes(lam, C, p)
        with np.errstate(divide="ignore", invalid="ignore"):
            target = np.clip(theta - first / second, lo, hi)
        move = (second < 0.0) & (np.abs(target - theta) > tol)
        if not move.any():
            break
        lane, theta, lo, hi = lane[move], target[move], lo[move], hi[move]


def _peak_starts(grids: np.ndarray) -> list[np.ndarray]:
    """Indices of the sampled local maxima of each start grid, best first.

    ``grids`` holds one start grid per row.  A cell is a sampled peak when
    its value is >= both cyclic neighbours (the profile has period pi).
    At most _NEWTON_STARTS are returned per grid.
    """
    peaks = (grids >= np.roll(grids, 1, axis=1)) & (grids >= np.roll(grids, -1, axis=1))
    starts = []
    for values, peak in zip(grids, peaks):
        order = np.argsort(values)[::-1]
        starts.append(order[peak[order]][:_NEWTON_STARTS])
    return starts


def _cell_caps(values: np.ndarray, r: float, M: np.ndarray) -> np.ndarray:
    """Upper bound for sup f over cells [c - r, c + r] with f(c) = values.

    Every dual certificate contributes a sinusoid with amplitude at most
    M >= sup f and center value at most f(c); M is given per cell.  A
    sinusoid peaking inside the cell is bounded by min(M, f(c)/cos r); one
    peaking outside by y cos r + sin r * sqrt(M^2 - y^2) with
    y = min(f(c), M cos r), which is where that expression is maximal.
    """
    cr = math.cos(r)
    sr = math.sin(r)
    y = np.minimum(values, M * cr)
    outside = y * cr + sr * np.sqrt(np.maximum(M * M - y * y, 0.0))
    inside = np.minimum(M, values / cr)
    return np.maximum(outside, inside)


def _covering_bound(tops: np.ndarray, r: float) -> np.ndarray:
    """Global bounds max_i f(c_i) / cos(r), one per lane, for cells of half-width r.

    ``tops`` holds each lane's largest cell value.  The profile is a
    pointwise maximum of sinusoids, so the certificate attaining the
    supremum is a sinusoid peaking exactly there, with amplitude sup f.
    The center c of the cell containing that peak then satisfies
    f(c) >= sup f * cos(r), which inverts to the bound.
    """
    return tops / math.cos(r)


def _lanewise(fn, fill, *stacks: np.ndarray) -> np.ndarray:
    """fn(*stacks) for a stacked LAPACK call, with NaN rows where a lane fails.

    A stacked call raises LinAlgError for the whole stack when one matrix
    fails (a singular solve, a non-finite eigenproblem).  The call is then
    redone lane by lane into ``fill()``, a NaN array of the result's
    shape, so that only the failing lanes are lost and every other lane
    gets the bits the stacked call gives it.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        out = fill()
        for k, operands in enumerate(zip(*stacks)):
            try:
                out[k] = fn(*operands)
            except np.linalg.LinAlgError:
                pass
        return out


def _ando_bound(X: np.ndarray, gamma: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Upper bounds on w(X_l) for a stack X, each from one eigensolve of a 2n x 2n dilation.

    For every Hermitian Z, Re(e^{i*theta} X) is the compression V* M V of
    M(Z) = [[-Z, X], [X*, Z]] by the isometry V = [I; e^{i*theta} I] / sqrt(2),
    so w(X) <= lambda_max(M(Z)).  Ando's theorem (Acta Sci. Math. 34, 1973)
    makes this tight: if w(X) <= gamma, then Z = gamma (2Y - I), with Y the
    maximal solution of Y + A* Y^{-1} A = I and A = X / (2 gamma), leaves
    gamma I - M(Z) positive semidefinite with a vanishing Schur complement,
    so lambda_max(M(Z)) = gamma.  Y comes from cyclic reduction (Meini,
    Math. Comp. 71, 2002), stopped once an update of Y, which moves
    lambda_max by at most 2 gamma times its norm, is below ``tol``.

    Lane l uses level gamma[l] and tolerance tol[l]; a lane leaves the
    iteration as soon as it stops, and every step is one stacked solve
    over the lanes still iterating.  The bound holds for whatever
    Hermitian Z the iteration returns, so an inaccurate Y costs tightness,
    never soundness.  M is formed exactly from X and Z; the eigensolver's
    backward error is added as LAPACK_BACKWARD * 2n * eps * ||M||_F.  A
    divergent iteration (gamma below w(X)) or a singular solve yields a
    non-finite or loose bound.
    """
    n = X.shape[1]
    eye = np.eye(n, dtype=np.complex128)
    A = X / (2.0 * gamma)[:, None, None]
    Q = np.broadcast_to(eye, X.shape).copy()
    Y = Q.copy()
    Y_end = np.empty_like(Y)
    live = np.arange(len(X))
    tol2 = (tol * tol).tolist()
    with np.errstate(all="ignore"):
        for _ in range(_CR_STEPS):
            W = np.concatenate([A, _adjoint(A)], axis=2)
            # [[A* Q^-1 A, A* Q^-1 A*], [A Q^-1 A, A Q^-1 A*]]; NaN rows for a singular Q
            T = _adjoint(W) @ _lanewise(np.linalg.solve, lambda: np.full_like(W, np.nan), Q, W)
            update = T[:, :n, :n]
            Y = Y - update
            Q = Q - update - T[:, n:, n:]
            A = T[:, n:, :n]
            # Stops on convergence and on a non-finite update alike.
            go = [np.vdot(u, u).real > t for u, t in zip(update, tol2)]
            if all(go):
                continue
            stop = np.logical_not(go)
            Y_end[live[stop]] = Y[stop]
            if not any(go):
                break
            live, A, Q, Y = live[~stop], A[~stop], Q[~stop], Y[~stop]
            tol2 = [t for t, g in zip(tol2, go) if g]
        else:
            Y_end[live] = Y
        Z = gamma[:, None, None] * (Y_end + _adjoint(Y_end) - eye)
        M = np.concatenate(
            [np.concatenate([-Z, X], axis=2), np.concatenate([_adjoint(X), Z], axis=2)], axis=1
        )
        top = _lanewise(np.linalg.eigvalsh, lambda: np.full(M.shape[:2], np.nan), M)[:, -1]
        pad = LAPACK_BACKWARD * 2 * n * _EPS
        return np.array([t + pad * float(np.linalg.norm(Mk)) for t, Mk in zip(top.tolist(), M)])


def _flag_grading(X: np.ndarray) -> np.ndarray | None:
    """Hermitian K with KX - XK = -X when X is a nilpotent shift, else None.

    The orthogonal kernel flag of X has E_0 = ker X, and E_k is the
    kernel of X modulo E_{<k}, taken on the orthogonal complement of
    E_{<k}: with Q an orthonormal basis of that complement, it is the
    null space of Q* X Q, read off one SVD per level.  X maps each E_k
    into E_{<k}; for a (weighted) shift it maps E_k into E_{k-1}, and then
    K = sum_k (k - (m-1)/2) P_k, with P_k the projector onto E_k, satisfies
    KX - XK = -X.  A singular value counts as zero below
    LAPACK_BACKWARD * n^2 * eps * ||X||_F (each of up to n levels adds an
    SVD backward error of about n eps ||X||_F).  An empty level means X is
    not nilpotent, and None is returned.  Callers measure how far K is
    from a grading, so a misjudged rank costs tightness, never soundness.
    """
    n = X.shape[0]
    tol = LAPACK_BACKWARD * n * n * _EPS * float(np.linalg.norm(X))
    Q = np.eye(n, dtype=np.complex128)
    levels = []
    while Q.shape[1]:
        _, s, Vh = np.linalg.svd(Q.conj().T @ X @ Q)
        rank = int((s > tol).sum())
        if rank == Q.shape[1]:
            return None
        V = Q @ Vh.conj().T
        levels.append(V[:, rank:])
        Q = V[:, :rank]
    m = len(levels)
    weights = np.concatenate([np.full(E.shape[1], k - 0.5 * (m - 1)) for k, E in enumerate(levels)])
    basis = np.concatenate(levels, axis=1)
    K = (basis * weights) @ basis.conj().T
    return 0.5 * (K + K.conj().T)


def _rotation_bound(
    X: np.ndarray, K: np.ndarray, A: np.ndarray, B: np.ndarray, p: float, value: float, h: float
) -> float:
    """Upper bound on sup f from ``value``, the largest sample of a start grid.

    The grid is uniform with step ``h`` over the period pi (a single sample
    is h = pi).  For every Hermitian K and R = KX - XK + X,
    d/dphi [e^{-i phi} e^{-i phi K} X e^{i phi K}] = -i e^{-i phi} e^{-i phi K} R e^{i phi K},
    so e^{i phi} X is within |phi| N(R) of the unitary conjugate
    e^{-i phi K} X e^{i phi K} in every unitarily invariant norm N.  Since
    N(Re Y) <= N(Y), f(theta_j + phi) <= f(theta_j) + |phi| N(R) for every
    sample theta_j.  The profile has period pi, so every angle is within
    h/2 of a sample, and sup f <= max_j f(theta_j) + (h/2) N(R).  The
    computed angles lie within 4 pi eps of the exact grid, which adds
    4 pi eps N(R).  The bound is tight when K grades X (KX - XK = -X), as
    _flag_grading's K does for a shift.

    Error model, as in _frobenius_radius:
    - N(R) <= n^max(0, 1/p - 1/2) ||R||_F.  The computed R differs from
      the exact one by at most 4 n eps (2 ||K||_F + 1) ||X||_F (two
      matrix products and two sums), and the computed ||R||_F is within
      n^2 eps of relative error (recursive summation).
    - Each sample is within n^(1/p) (LAPACK_BACKWARD n + 4 + n) eps
      (||A||_F + ||B||_F) of the exact f(theta_j): the eigensolver's backward
      error, forming the Cartesian parts and H = cos A - sin B, and
      summing n moduli.
    """
    n = X.shape[0]
    R = K @ X - X @ K + X
    fro_X = float(np.linalg.norm(X))
    fro_R = float(np.linalg.norm(R)) * (1.0 + n * n * _EPS)
    fro_R += 4.0 * n * _EPS * (2.0 * float(np.linalg.norm(K)) + 1.0) * fro_X
    drift = n ** max(0.0, 1.0 / p - 0.5) * fro_R
    sample = n ** (1.0 / p) * ((LAPACK_BACKWARD + 1.0) * n + 4.0) * _EPS
    sample *= float(np.linalg.norm(A)) + float(np.linalg.norm(B))
    return value + sample + (0.5 * h + 4.0 * math.pi * _EPS) * drift


def _frobenius_radii(A: np.ndarray, B: np.ndarray, spec: NormSpec) -> list[RadiusEstimate]:
    """Closed-form Frobenius radius of each X_l = A_l + i B_l.

    With a = ||A||_F^2, b = ||B||_F^2 and c = <A, B> = Re tr(AB),
    f(theta)^2 = a cos^2 - 2 c sin cos + b sin^2 is the quadratic form of
    G = [[a, -c], [-c, b]] at (cos theta, sin theta), so sup f^2 =
    lambda_max(G) = (a + b)/2 + hypot((a - b)/2, c), attained at the angle
    of the top eigenvector, 2 theta* = atan2(-2c, a - b).  ``value`` is the
    profile evaluated at theta*, for every lane in one eigvalsh.

    Rounding pad: each of a, b, c sums n^2 products of entries of the
    computed Cartesian parts, which are within eps of exact entrywise, so
    each is within (n^2 + 6) eps (a + b) of its exact value (recursive
    summation, Higham, Accuracy and Stability, section 3.1, plus
    Cauchy-Schwarz for c); lambda_max(G) is 1-Lipschitz in each of a, b, c
    and its formula adds at most 4 eps (a + b).  The pad is twice the sum,
    (6 n^2 + 44) eps (a + b), added under the square root.
    """
    n = A.shape[1]
    estimates = [RadiusEstimate(0.0, 0.0, 0.0, spec)] * len(A)
    lanes, thetas, uppers = [], [], []
    for l, (Al, Bl) in enumerate(zip(A, B)):
        a = float(np.vdot(Al, Al).real)
        b = float(np.vdot(Bl, Bl).real)
        if a + b == 0.0:
            continue
        c = float(np.vdot(Al, Bl).real)
        top = 0.5 * (a + b) + math.hypot(0.5 * (a - b), c)
        lanes.append(l)
        uppers.append(math.sqrt(top + (6 * n * n + 44) * _EPS * (a + b)))
        thetas.append((0.5 * math.atan2(-2.0 * c, a - b)) % math.pi)
    if lanes:
        segments = [(l, k, k + 1) for k, l in enumerate(lanes)]
        values = _profile_values(A, B, segments, np.array(thetas), 2.0).tolist()
        for l, theta, upper, value in zip(lanes, thetas, uppers, values):
            estimates[l] = RadiusEstimate(value, theta, max(0.0, upper - value), spec)
    return estimates


def _subdivide(
    A: np.ndarray,
    B: np.ndarray,
    p: float,
    segments: list[tuple[int, int, int]],
    theta: np.ndarray,
    values: np.ndarray,
    r: float,
    bound: list[float],
    slack: list[float],
    g_stop: list[float],
    best: _Best,
) -> None:
    """Certify by subdivision, lowering bound[l] of every lane in the cells.

    The cells theta have half-width ``r`` and profile values ``values``;
    the rows lo:hi of each (l, lo, hi) in ``segments`` belong to lane l.
    A lane splits its cells until its covering bound is within g_stop[l]
    of its best sample or its budget runs out; each round caps and
    evaluates the cells of every open lane in one batch.  The bound stays
    valid at every stage, so exhausting the budget only enlarges
    cert_error.  ``bound``, ``slack``, ``g_stop`` and ``best`` are indexed
    by lane.
    """
    pruned = [-math.inf] * len(bound)
    for _ in range(_MAX_ROUNDS):
        starts = np.array([lo for _, lo, _ in segments])
        cells = np.array([hi - lo for _, lo, hi in segments])
        covers = _covering_bound(np.maximum.reduceat(values, starts), r).tolist()
        cutoffs = []
        for (l, _, _), cover in zip(segments, covers):
            high = best.value[l]
            # The global maximum lies either in a pruned cell (bounded at
            # prune time) or in an active one (covering bound applies).
            bound[l] = min(bound[l], max(max(high, cover) + slack[l], pruned[l]))
            # A closed lane keeps no cell.
            cutoffs.append(high + g_stop[l] if bound[l] - high > g_stop[l] else math.inf)
        caps = _cell_caps(values, r, np.array([bound[l] for l, _, _ in segments]).repeat(cells))
        caps += np.array([slack[l] for l, _, _ in segments]).repeat(cells)
        keep = caps > np.array(cutoffs).repeat(cells)
        kept = np.add.reduceat(keep, starts).tolist()
        dropped = np.maximum.reduceat(np.where(keep, -np.inf, caps), starts).tolist()
        r = r / 2
        children, halves = [], []
        for (l, lo, hi), cutoff, count, cap in zip(segments, cutoffs, kept, dropped):
            if cutoff == math.inf:
                continue
            if not count:
                # Every cap is within best + g_stop.
                bound[l] = min(bound[l], max(pruned[l], cutoff))
                continue
            pruned[l] = max(pruned[l], cap)
            if 2 * count <= _MAX_CELLS:
                start = children[-1][2] if children else 0
                children.append((l, start, start + 2 * count))
                th = theta[lo:hi][keep[lo:hi]]
                halves += [th - r, th + r]
        if not children:
            break
        segments = children
        theta = np.concatenate(halves)
        values = _profile_values(A, B, segments, theta, p)
        best.update(segments, theta, values)


def omega_n(
    spec: NormSpec, X, *more, grid: int = DEFAULT_GRID, refine_tol: float = 1e-10
) -> RadiusEstimate | tuple[RadiusEstimate, ...]:
    """Generalized numerical radius sup_theta N(Re(e^{i*theta} X)).

    Parameters
    ----------
    spec:
        Norm descriptor.
    X, *more:
        One or more square matrices of the same size.
    grid:
        Uniform samples of the profile on [0, pi); at least 8.
    refine_tol:
        Step size below which Newton polishing stops, and the target
        width of the certification pass.

    Returns a RadiusEstimate with value the best profile sample found,
    the angle attaining it, and a certified error so that the true
    supremum lies in [value, value + cert_error]; several matrices give a
    tuple of estimates, one per matrix.  The matrices run in lockstep as
    lanes of one batch: every stage is one batched eigensolve (or solve)
    over the lanes still open, and a lane leaves as soon as it is
    certified.  Each lane's estimate is bit for bit the one a call with
    that matrix alone returns.

    The Frobenius norm takes the closed form, which samples no grid and
    needs no tolerance.  A flat start grid tries the rotation bound of a
    circular X first; the operator norm tries Ando's bound before
    subdividing.
    """
    mats = [as_matrix(M, f"matrix {k}" if more else "matrix") for k, M in enumerate((X, *more))]
    n = mats[0].shape[0]
    for k, M in enumerate(mats):
        if M.shape != mats[0].shape:
            raise DimensionError(f"matrix {k} has dimension {M.shape[0]}, expected {n}")
    if not isinstance(grid, (int, np.integer)) or grid < 8:
        raise ValueError(f"grid must be an integer >= 8, got {grid}")
    if not (refine_tol > 0):
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    Xs = np.array(mats)
    # The Cartesian parts, formed as cartesian_decompose forms them.
    Xh = _adjoint(Xs)
    A, B = (Xs + Xh) / 2, (Xs - Xh) / 2j
    if spec.schatten_p == 2.0:
        estimates = _frobenius_radii(A, B, spec)
    else:
        estimates = _certified_radii(spec, Xs, A, B, grid, refine_tol)
    return estimates[0] if len(estimates) == 1 else tuple(estimates)


def _certified_radii(
    spec: NormSpec, Xs: np.ndarray, A: np.ndarray, B: np.ndarray, grid: int, refine_tol: float
) -> list[RadiusEstimate]:
    """omega_n for every lane of a stack, in any norm but the Frobenius one."""
    L = len(Xs)
    p = spec.schatten_p
    # N(Re X_l) and N(Im X_l) from one eigvalsh.  Each row is reduced on
    # its own, as hermitian_norm reduces it: numpy rounds a power of an
    # array and of a scalar differently.
    moduli = np.abs(np.linalg.eigvalsh(np.concatenate([A, B])))
    norms = [float(schatten_value(row, p)) for row in moduli]
    nA, nB = norms[:L], norms[L:]
    lipschitz = [a + b for a, b in zip(nA, nB)]
    g_stop = [0.5 * lip * refine_tol for lip in lipschitz]
    estimates = [RadiusEstimate(0.0, 0.0, 0.0, spec) if lip == 0.0 else None for lip in lipschitz]
    live = [l for l, lip in enumerate(lipschitz) if lip != 0.0]
    if not live:
        return estimates
    best = _Best(L)

    def done(l: int, theta: float, cert_error: float) -> None:
        estimates[l] = RadiusEstimate(best.value[l], theta, cert_error, spec)

    h = math.pi / grid
    centers = (np.arange(grid) + 0.5) * h
    segments = [(l, k * grid, (k + 1) * grid) for k, l in enumerate(live)]
    theta = np.concatenate([centers] * len(live))
    values = _profile_values(A, B, segments, theta, p)
    best.update(segments, theta, values)
    rows = dict(zip(live, values.reshape(len(live), grid)))

    # A flat grid: try the rotation symmetry of a circular X.
    for l, row in rows.items():
        if float(row.max() - row.min()) <= g_stop[l]:
            K = _flag_grading(Xs[l])
            if K is not None:
                rotation = _rotation_bound(Xs[l], K, A[l], B[l], p, best.value[l], h)
                if rotation - best.value[l] <= g_stop[l]:
                    done(l, best.theta[l], float(rotation - best.value[l]))
    rows = {l: row for l, row in rows.items() if estimates[l] is None}
    if not rows:
        return estimates

    # Polish each sampled peak with Newton steps on the profile.
    starts = _peak_starts(np.stack(list(rows.values())))
    lane = np.repeat(list(rows), [len(s) for s in starts])
    _newton_polish(A, B, p, lane, centers[np.concatenate(starts)], h, refine_tol, best)

    if math.isinf(p):
        # Ando's level sits g_stop/2 above the best sample.  A bound that
        # does not close (Newton found a local maximum only, or the
        # iteration broke down) falls through to subdivision; NaN
        # compares false.
        ids = list(rows)
        gamma = [best.value[l] + 0.5 * g_stop[l] for l in ids]
        tol = [g_stop[l] / (8.0 * level) for l, level in zip(ids, gamma)]
        ando = _ando_bound(Xs[ids], np.array(gamma), np.array(tol))
        for l, bound in zip(ids, ando.tolist()):
            if bound - best.value[l] <= g_stop[l]:
                done(l, best.theta[l] % math.pi, max(0.0, bound - best.value[l]))
        rows = {l: row for l, row in rows.items() if estimates[l] is None}
        if not rows:
            return estimates

    # Certification: subdivide until the covering bound is within g_stop
    # of the best sample or the budget runs out.
    slack = [0.0] * L
    bound = [0.0] * L
    for l, row in rows.items():
        top = math.hypot(nA[l], nB[l])
        slack[l] = _EIG_SLACK * top
        bound[l] = min(top, float(row.max()) + lipschitz[l] * h / 2) + slack[l]
    segments = [(l, k * grid, (k + 1) * grid) for k, l in enumerate(rows)]
    theta = np.concatenate([centers] * len(rows))
    values = np.concatenate(list(rows.values()))
    _subdivide(A, B, p, segments, theta, values, h / 2, bound, slack, g_stop, best)
    for l in rows:
        done(l, best.theta[l] % math.pi, max(0.0, bound[l] - best.value[l]))
    return estimates


def omega(X, grid: int = DEFAULT_GRID, refine_tol: float = 1e-10) -> RadiusEstimate:
    """Classical numerical radius: omega_n with the operator norm."""
    return omega_n(OPERATOR, X, grid=grid, refine_tol=refine_tol)


def _support_points(X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Support points <Xv, v>, v a top eigenvector of Re(e^{-i*theta} X).

    When the top eigenvalue is degenerate (gap below 1e-12) the first
    eigenvector attaining it is used; any maximizer yields a valid
    support point.
    """
    A, B = cartesian_decompose(X)
    c = np.cos(thetas)
    s = np.sin(thetas)
    H = c[:, None, None] * A + s[:, None, None] * B
    w, V = np.linalg.eigh(H)
    lam_max = w[:, -1]
    tol = 1e-12 * np.maximum(1.0, np.abs(lam_max))
    idx = (w >= (lam_max - tol)[:, None]).argmax(axis=1)
    rows = np.arange(len(thetas))
    v = V[rows, :, idx]
    return np.einsum("ki,ij,kj->k", v.conj(), X, v)


def numerical_range_boundary(X, samples: int) -> list[RangePoint]:
    """Support points of the numerical range at angles 2*pi*k/samples."""
    X = as_matrix(X)
    if not isinstance(samples, (int, np.integer)) or samples < 4:
        raise ValueError(f"samples must be an integer >= 4, got {samples}")
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    pts = _support_points(X, thetas)
    return [RangePoint(float(t), complex(z)) for t, z in zip(thetas, pts)]
