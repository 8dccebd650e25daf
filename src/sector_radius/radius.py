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
Every other norm first samples a uniform grid anchored at theta = 0,
where a Hermitian X peaks (a skew-Hermitian X peaks at pi/2, also a
sample, since the grid must be even).  A grid that comes out flat
(spread within the target width) asks whether X is circular, that is
unitarily similar to e^{i*phi} X for every phi: a grading K of X's
kernel flag bounds every angle by the best sample plus
(h/2) N(KX - XK + X), h the grid step; the norm vanishes for nilpotent
shifts such as Jordan blocks.

Every other profile certifies with a covering bound: if cells of
half-widths r_i around centres c_i cover the period, sup f <=
max_i f(c_i)/cos(r_i).  Grid cells whose term stays within the target
pass as they are.  The open ones form blocks, one per sampled peak; each
block's peak is located by two rounds of three-point parabola fits, and
the block is replaced by a ladder of cells whose half-widths grow with
the distance from the fitted peak, so that every term comes out within
the target.  The fit affects only how many cells the ladder needs, never
the bound.  It applies to the operator norm too: that profile is a
maximum of analytic eigenvalue branches, so its strict local maxima are
smooth peaks of every active branch, and its corners are minima.  A lane
still open subdivides its cells, with per-cell upper caps from the
sinusoid structure, until the bound closes or a budget runs out.

omega_n takes any number of same-size matrices and runs them in
lockstep, as lanes of one batch: the norms of the Cartesian parts, the
start grid, each fit round, the ladders and each subdivision round is
one batched eigvalsh over the lanes still open, and a lane leaves as
soon as it is certified.
Stacked LAPACK calls and products act on each matrix alone and every
reduction runs per lane, so each lane's estimate is bit for bit that of
a call with its matrix alone; a single matrix is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LAPACK_BACKWARD, as_matrix, as_stack, cartesian_decompose, cartesian_parts
from .norms import NormSpec, OPERATOR, schatten_value

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_REFINE_TOL",
    "RadiusEstimate",
    "RangePoint",
    "radius_profile",
    "omega_n",
    "omega",
    "numerical_range_boundary",
    "check_grid",
]

# Uniform start cells of omega_n on [0, pi).  The certification pass
# carries the accuracy; the grid only seeds it.
DEFAULT_GRID = 32

# Target width of a certified radius, relative to the profile's Lipschitz
# constant N(Re X) + N(Im X).
DEFAULT_REFINE_TOL = 1e-10

# Budget of the subdivision pass; exhausting it enlarges cert_error but
# never invalidates it.
_MAX_CELLS = 200000
_MAX_ROUNDS = 48

# Largest batch of matrices handed to one eigvalsh call, which bounds the
# memory of a subdivision round (1024 matrices of 64 x 64 take 64 MiB).
_EIG_BATCH = 1024

# Spacings of the two parabolic refinement rounds of a peak: a fraction of
# the grid step, then a fixed angle at which the fitted vertex is within
# about 1e-8 of the peak.
_FIT_GRID_FRACTION = 1.0 / 16.0
_FIT_SPACING = 1e-4

# Most cells laid on each side of a fitted peak; a side that needs more
# (a peak far flatter than its fit) ends in one wide cell that
# subdivision then splits.
_MAX_RUNGS = 64

_EPS = float(np.finfo(np.float64).eps)

# Added to every cell's half-width: a computed cell centre lies within
# 4 pi eps of its exact position, so padded cells overlap across the
# rounding seams and still cover the period.
_PAD = 4.0 * math.pi * _EPS


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


def _cell_caps(values: np.ndarray, r: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Upper bound for sup f over cells [c - r, c + r] with f(c) = values.

    Every dual certificate contributes a sinusoid with amplitude at most
    M >= sup f and center value at most f(c); r and M are given per cell.
    A sinusoid peaking inside the cell is bounded by min(M, f(c)/cos r);
    one peaking outside by y cos r + sin r * sqrt(M^2 - y^2) with
    y = min(f(c), M cos r), which is where that expression is maximal.
    """
    cr = np.cos(r)
    y = np.minimum(values, M * cr)
    outside = y * cr + np.sin(r) * np.sqrt(np.maximum(M * M - y * y, 0.0))
    inside = np.minimum(M, values / cr)
    return np.maximum(outside, inside)


def _covering_bound(values: np.ndarray, r: np.ndarray, starts: np.ndarray) -> list[float]:
    """Global bounds max_i f(c_i) / cos(r_i), one per lane, for cells covering the period.

    Cell i has center c_i, half-width r_i and value f(c_i); the cells of
    each lane start at the rows ``starts``.  The profile is a pointwise
    maximum of sinusoids, so the certificate attaining the supremum is a
    sinusoid peaking exactly there, with amplitude sup f.  The center c of
    a cell containing that peak then satisfies f(c) >= sup f * cos(r),
    which inverts to the bound.  Any cells whose union covers [0, pi)
    modulo pi will do.
    """
    return np.maximum.reduceat(values / np.cos(r), starts).tolist()


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
    return value + _sample_error(A, B, p) + (0.5 * h + _PAD) * drift


def _sample_error(A: np.ndarray, B: np.ndarray, p: float) -> float:
    """Bound on |computed - exact| of every profile sample of X = A + iB.

    n^(1/p) ((LAPACK_BACKWARD + 1) n + 4) eps (||A||_F + ||B||_F): the
    eigensolver's backward error, forming H = cos A - sin B, and summing
    n moduli (see _rotation_bound).
    """
    n = A.shape[0]
    sample = n ** (1.0 / p) * ((LAPACK_BACKWARD + 1.0) * n + 4.0) * _EPS
    return sample * (float(np.linalg.norm(A)) + float(np.linalg.norm(B)))


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


def _parabola(lo: float, mid: float, hi: float, s: float) -> tuple[float, float]:
    """Vertex offset and curvature of the parabola through (-s, lo), (0, mid), (s, hi).

    The offset is clipped to [-s, s], and the curvature kappa = -f'' is
    0 where the three samples are not concave; there the offset steps to
    the higher neighbour.
    """
    d2 = lo - 2.0 * mid + hi
    if d2 < 0.0:
        return min(max(0.5 * s * (lo - hi) / d2, -s), s), -d2 / (s * s)
    return (s if hi > lo else -s if hi < lo else 0.0), 0.0


def _open_blocks(row: np.ndarray, open_: np.ndarray) -> list[tuple[int, int, int]]:
    """Blocks of the open cells of a start grid, one per sampled peak.

    Open cells come in runs of cyclically consecutive cells, and a run is
    cut after each sampled local minimum, so that a block rises to its
    highest cell and falls after it.  Each block is (best, first, last):
    its cells are first..last, its highest cell best, and
    first <= best <= last are indices that may run past the grid's end
    (cell k sits at angle k h for every integer k).
    """
    grid = len(row)
    flags = open_.tolist()
    values = row.tolist()
    # One walk around the period, starting just after a closed cell (after
    # the lowest cell if all are open), so that no run is cut at its ends.
    start = 1 + (int(np.argmin(row)) if all(flags) else flags.index(False))
    blocks = []
    prev = None
    for k in range(start, start + grid):
        if not flags[k % grid]:
            prev = None
            continue
        v = values[k % grid]
        if prev is None or (falling and v > prev):
            blocks.append([k, k, k])
            falling = False
        else:
            blocks[-1][2] = k
            falling = falling or v < prev
            if v > values[blocks[-1][0] % grid]:
                blocks[-1][0] = k
        prev = v
    return [tuple(block) for block in blocks]


def _ladder(
    peak: float, kappa: float, top: float, g: float, lo: float, hi: float
) -> tuple[list[float], list[float]]:
    """Centers and half-widths of cells covering [lo, hi] around a fitted peak.

    Near ``peak`` the profile is modelled as top - kappa (t - peak)^2 / 2,
    and every cell is laid so that its covering term f(c)/cos r stays
    below top + g/2 (to leading order, 1/cos r = 1 + r^2/2) even where the
    profile drops only half as fast as the model.  The center cell sits
    on the peak, where f(c) <= top whatever the model, with
    r0 = sqrt(g/top).  A cell whose near edge is at distance e from the
    peak has its center at e + r and takes the largest r with
    top r^2 <= g + (kappa/2) (e + r)^2, so the cells grow about
    geometrically with e.  A side lays at most _MAX_RUNGS cells and
    stretches its last one to reach the end.  The cells cover [lo, hi]
    for any inputs; the model only decides how tight their terms come
    out.  Half-widths are returned without _PAD.
    """
    k = 0.5 * kappa
    r0 = math.sqrt(g / top)
    centers, widths = [peak], [r0]
    for sign, extent in ((1.0, hi - peak), (-1.0, peak - lo)):
        e = r0
        for rung in range(_MAX_RUNGS):
            if e >= extent:
                break
            if rung == _MAX_RUNGS - 1:
                r = 0.5 * (extent - e)
            else:
                r = (k * e + math.sqrt(k * k * e * e + (top - k) * (g + k * e * e))) / (top - k)
            centers.append(peak + sign * (e + r))
            widths.append(r)
            e += 2.0 * r
    return centers, widths


def _subdivide(
    A: np.ndarray,
    B: np.ndarray,
    p: float,
    segments: list[tuple[int, int, int]],
    theta: np.ndarray,
    values: np.ndarray,
    r: np.ndarray,
    bound: list[float],
    slack: list[float],
    g_stop: list[float],
    best: _Best,
) -> None:
    """Certify by subdivision, lowering bound[l] of every lane in the cells.

    Cell k has center theta[k], half-width r[k] and profile value
    values[k]; the rows lo:hi of each (l, lo, hi) in ``segments`` belong
    to lane l, and a lane's cells cover [0, pi) modulo pi.  A lane splits
    its cells until its covering bound is within g_stop[l] of its best
    sample or its budget runs out; each round caps and evaluates the
    cells of every open lane in one batch.  A lane whose cells already
    close leaves in the first round, before any evaluation.  The bound
    stays valid at every stage, so exhausting the budget only enlarges
    cert_error.  ``bound``, ``slack``, ``g_stop`` and ``best`` are indexed
    by lane.
    """
    pruned = [-math.inf] * len(bound)
    for _ in range(_MAX_ROUNDS):
        starts = np.array([lo for _, lo, _ in segments])
        cells = np.array([hi - lo for _, lo, hi in segments])
        covers = _covering_bound(values, r, starts)
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
        children, halves, radii = [], [], []
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
                half = 0.5 * r[lo:hi][keep[lo:hi]]
                halves += [th - half, th + half]
                radii += [half + _PAD] * 2
        if not children:
            break
        segments = children
        theta = np.concatenate(halves)
        r = np.concatenate(radii)
        values = _profile_values(A, B, segments, theta, p)
        best.update(segments, theta, values)


def _fit_round(
    A: np.ndarray, B: np.ndarray, p: float, lane: list[int], theta: list[float], s: float, best: _Best
) -> list[tuple[float, float, float, bool]]:
    """One three-point parabola fit per peak, all in one batched eigvalsh.

    Peak k belongs to lane lane[k] (ascending) and is sampled at
    theta[k] - s, theta[k], theta[k] + s; the samples feed ``best``.
    Returns (vertex, curvature -f'', highest sample, clipped) per peak,
    clipped when the vertex step reached the spacing s.
    """
    segments = _segments(np.repeat(lane, 3))
    points = np.array([[t - s, t, t + s] for t in theta]).ravel()
    values = _profile_values(A, B, segments, points, p)
    best.update(segments, points, values)
    y = values.tolist()
    fits = []
    for k, t in enumerate(theta):
        step, kappa = _parabola(*y[3 * k : 3 * k + 3], s)
        fits.append((t + step, kappa, max(y[3 * k : 3 * k + 3]), abs(step) == s))
    return fits


def _fit_peaks(
    A: np.ndarray, B: np.ndarray, p: float, lane: list[int], theta: list[float], h: float, best: _Best
) -> list[tuple[float, float, float]]:
    """Refine peak estimates with two rounds of three-point parabola fits.

    Peak k belongs to lane lane[k] (ascending) and starts at theta[k].
    The first round, at spacing h _FIT_GRID_FRACTION, moves each peak to
    its fitted vertex; a peak whose step was clipped to the spacing (the
    start lay further away) repeats that round once from where it got to.
    The second round, at _FIT_SPACING, gives the final vertex and its
    curvature.  Returns (vertex, curvature -f'', highest sample of the
    last round) per peak.  No bound relies on the fit: a poor one only
    costs cells.
    """
    s = h * _FIT_GRID_FRACTION
    fits = _fit_round(A, B, p, lane, theta, s, best)
    clipped = [k for k, fit in enumerate(fits) if fit[3]]
    if clipped:
        again = _fit_round(A, B, p, [lane[k] for k in clipped], [fits[k][0] for k in clipped], s, best)
        for k, fit in zip(clipped, again):
            fits[k] = fit
    fits = _fit_round(A, B, p, lane, [fit[0] for fit in fits], _FIT_SPACING, best)
    return [fit[:3] for fit in fits]


def _covering_cells(
    A: np.ndarray,
    B: np.ndarray,
    p: float,
    rows: dict[int, np.ndarray],
    h: float,
    slack: list[float],
    g_stop: list[float],
    best: _Best,
) -> tuple[list[tuple[int, int, int]], np.ndarray, np.ndarray, np.ndarray]:
    """Cells covering the period for each lane, as _subdivide takes them.

    ``rows`` maps each lane to its start grid of step h.  A grid cell
    whose covering term f(c)/cos(h/2) is within g_stop of the best sample
    stays.  The others form blocks, one per sampled peak (_open_blocks).
    Each block's peak starts at the vertex of the parabola through its
    three grid samples, is refined by _fit_peaks, and the block is
    replaced by a _ladder around it; the ladders of every lane are
    evaluated in one batch.  Returns (segments, theta, values, r): the
    rows lo:hi of each (l, lo, hi) are lane l's cells, with centers
    theta, profile values and padded half-widths r.
    """
    ids = list(rows)
    grid = len(rows[ids[0]])
    r_grid = 0.5 * h + _PAD
    passing = {}
    blocks = []
    for l, row in rows.items():
        open_ = row / math.cos(r_grid) + slack[l] > best.value[l] + g_stop[l]
        passing[l] = ~open_
        blocks += [(l,) + block for block in _open_blocks(row, open_)]
    rungs = {l: ([], []) for l in ids}
    if blocks:
        starts = []
        for l, k, _, _ in blocks:
            y = rows[l].take([k - 1, k, k + 1], mode="wrap").tolist()
            starts.append(k * h + _parabola(*y, h)[0])
        fits = _fit_peaks(A, B, p, [block[0] for block in blocks], starts, h, best)
        for (l, k, first, last), (peak, kappa, top) in zip(blocks, fits):
            top = max(top, float(rows[l][k % grid]))
            # A lower peak needs its cells' terms below the lane's best only.
            g = max(g_stop[l] - slack[l], 0.0) + best.value[l] - top
            at, widths = _ladder(peak, min(kappa, top), top, g, (first - 0.5) * h, (last + 0.5) * h)
            rungs[l][0].extend(at)
            rungs[l][1].extend(widths)
    counts = [len(rungs[l][0]) for l in ids]
    rung_segments = _segments(np.repeat(ids, counts))
    rung_theta = np.array([t for l in ids for t in rungs[l][0]])
    rung_values = _profile_values(A, B, rung_segments, rung_theta, p)
    best.update(rung_segments, rung_theta, rung_values)
    # Each lane's cells: its passing grid cells, then its ladders.
    centers = np.arange(grid) * h
    segments, theta, values, r = [], [], [], []
    stop = rung = 0
    for l, count in zip(ids, counts):
        kept = passing[l]
        cells = int(kept.sum()) + count
        segments.append((l, stop, stop + cells))
        stop += cells
        theta += [centers[kept], rung_theta[rung : rung + count]]
        values += [rows[l][kept], rung_values[rung : rung + count]]
        r += [np.full(cells - count, r_grid), np.array(rungs[l][1]) + _PAD]
        rung += count
    return segments, np.concatenate(theta), np.concatenate(values), np.concatenate(r)


def check_grid(grid) -> None:
    """Raise ValueError unless ``grid`` is an even integer >= 8.

    An odd grid never samples theta = pi/2, where the profile of a
    skew-Hermitian X peaks.
    """
    if not isinstance(grid, (int, np.integer)) or grid < 8 or grid % 2:
        raise ValueError(f"grid must be an even integer >= 8, got {grid}")


def omega_n(
    spec: NormSpec, X, *more, grid: int = DEFAULT_GRID, refine_tol: float = DEFAULT_REFINE_TOL
) -> RadiusEstimate | tuple[RadiusEstimate, ...]:
    """Generalized numerical radius sup_theta N(Re(e^{i*theta} X)).

    Parameters
    ----------
    spec:
        Norm descriptor.
    X, *more:
        One or more square matrices of the same size.
    grid:
        Uniform samples of the profile on [0, pi); even, so that theta =
        pi/2 is a sample, and at least 8 (``check_grid``).
    refine_tol:
        Target width of the certificate, relative to the profile's
        Lipschitz constant.

    Returns a RadiusEstimate with value the best profile sample found,
    the angle attaining it, and a certified error so that the true
    supremum lies in [value, value + cert_error]; several matrices give a
    tuple of estimates, one per matrix.  The matrices run in lockstep as
    lanes of one batch: every stage is one batched eigvalsh over the
    lanes still open, and a lane leaves as soon as it is certified.  Each
    lane's estimate is bit for bit the one a call with that matrix alone
    returns.

    The Frobenius norm takes the closed form, which samples no grid and
    needs no tolerance.  Every other norm samples a start grid anchored at
    theta = 0; a flat grid tries the rotation bound of a circular X first.
    Otherwise each open peak of the grid is fitted with two batched
    parabola rounds and one ladder of cells is evaluated around the
    fitted peaks, which for a typical matrix makes 5 eigvalsh calls in
    all.  A lane whose ladder leaves it open subdivides.
    """
    Xs = as_stack(X, *more)
    check_grid(grid)
    if not (refine_tol > 0):
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    A, B = cartesian_parts(Xs)
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
    centers = np.arange(grid) * h
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

    # Certification: cells covering the period from the grid and a ladder
    # around each open peak, subdivided only where they leave a lane open.
    slack = [0.0] * L
    bound = [0.0] * L
    for l, row in rows.items():
        slack[l] = _sample_error(A[l], B[l], p)
        bound[l] = min(math.hypot(nA[l], nB[l]), float(row.max()) + lipschitz[l] * h / 2) + slack[l]
    cells = _covering_cells(A, B, p, rows, h, slack, g_stop, best)
    _subdivide(A, B, p, *cells, bound, slack, g_stop, best)
    for l in rows:
        done(l, best.theta[l] % math.pi, max(0.0, bound[l] - best.value[l]))
    return estimates


def omega(X, grid: int = DEFAULT_GRID, refine_tol: float = DEFAULT_REFINE_TOL) -> RadiusEstimate:
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
