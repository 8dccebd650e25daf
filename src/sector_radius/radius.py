"""Numerical range boundary, numerical radius, and its norm generalization.

The central object is the angle profile f(theta) = N(Re(e^{i*theta} X)),
whose supremum over theta defines the generalized numerical radius.  The
profile has period pi, is Lipschitz with constant L = N(Re X) + N(Im X),
and is a pointwise maximum of sinusoids of amplitude at most sup f (one
sinusoid per dual-norm certificate).  omega_n returns ``value`` (a
profile sample, or for the Frobenius norm the closed form's centre)
together with a guaranteed gap ``cert_error`` so that the true supremum
lies in [value, value + cert_error].

The Frobenius profile is a quadratic form in (cos theta, sin theta), so
its supremum is the square root of the top eigenvalue of a 2x2 Gram
matrix, read off in closed form with a stated rounding pad and no
eigensolve.
In every other norm a Hermitian X has the profile |cos theta| N(Re X)
and a skew-Hermitian X |sin theta| N(Im X), so their radii are one
norm each, exact up to the sample error.  Any other X samples a uniform
grid of step h anchored at theta = 0, coarse to fine: first its even
samples 2kh.  theta = 0 gives N(Re X), and the sample at pi/2 is formed
as Im X itself and gives N(Im X), so the grid is a multiple of 4.  The
two give the Cartesian bracket max(N(Re X), N(Im X)) <= sup f <=
hypot(N(Re X), N(Im X)) (Abu-Omar and Kittaneh, LAA 569, 2019): its
lower end is the best of the two samples and its upper end the start
bound of every lane.  On a grid of 4 these are the only even samples,
and a covering cell there (half-width pi/4) exceeds its sample by
1/cos(pi/4) - 1 = 0.414 of it, so at refine_tol 1.0 every lane closes
on the bracket.

A circular X, one unitarily similar to e^{i*phi} X for every phi, has a
spectrum invariant under rotation, so it is nilpotent and tr X = 0.  Its
profile is flat, and the rotation bound certifies it: for every Hermitian
K, every angle is within phi of a sample of a uniform grid of step 2 phi,
and moves the profile by at most phi N(R), R = KX - XK + X.  A K read off
the polar part of one SVD of X makes R vanish for sums of weighted shifts
such as Jordan blocks.  Since tr(KX - XK) = 0, tr R = tr X, so
|tr X| <= sqrt(n) ||R||_F and a lane with a sizeable trace never closes
this way.  A lane whose trace is within rounding of 0 is therefore graded
before the grid and, when its one-sample bound can reach the target,
evaluates theta = 0 and pi/2 alone: the bound with the single sample
theta = 0 (step pi) closes a circular X there.  A graded lane left open
evaluates the rest of its even samples, tries the bound again on them
(step 2h), and otherwise goes on as any lane.  Soundness never rests on which lanes
are graded, since the bound holds for every Hermitian K.

Every other profile certifies with a covering bound: if cells of
half-widths r_i around centres c_i cover the period, sup f <=
max_i (f(c_i) + e)/cos(r_i), with e the sample error.  This term is the
only cell test.  Coarse cells (half-width h) whose term stays within the
target pass, and a lane whose coarse cells all pass is done after the
first eigvalsh.  Otherwise the odd samples
beside the open coarse cells are evaluated, and the fine cells
(half-width h/2) there pass on the same test.  Passing cells count only
through a lane's largest term of theirs, its settled term.  The open
fine cells form blocks, one per sampled peak; each block's peak
is located by two rounds of three-point parabola fits, and the block is
replaced by a ladder of cells whose half-widths grow with the distance
from the fitted peak, so that every term comes out within the target.
The fit affects only how many cells the ladder needs, never the bound.
It applies to the operator norm too: that profile is a maximum of
analytic eigenvalue branches, so its strict local maxima are smooth
peaks of every active branch, and its corners are minima.  A lane still
open settles the ladder cells that pass and splits the others, until
the bound closes or a budget runs out.

omega_n takes any number of same-size matrices and runs them in
lockstep, as lanes of one batch: the coarse grid, the rest of the graded
lanes' even samples, the odd samples, each fit round, the ladders and
each subdivision round is one batched eigvalsh over the lanes still
open, and a lane leaves as soon as it is certified.  The lanes are set
up in one pass: linalg.as_scaled_stack stacks and range-tests them
without writing to the caller's data, and the Frobenius norms of each
lane's Cartesian parts give both its sample error and its kind
(Hermitian, skew-Hermitian or general) before the trace screen picks
the lanes to grade.  When every lane takes the same first-stage samples
(all general, as in every suite draw, or all graded, as a Jordan block
alone), one broadcast forms them, and the graded lanes' closing test
runs on Python floats.
Stacked LAPACK calls and products act on each matrix alone and every
reduction runs per lane, so each lane's estimate is bit for bit that of
a call with its matrix alone; a single matrix is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    LAPACK_BACKWARD,
    as_matrix,
    as_scaled_stack,
    cartesian_decompose,
    cartesian_parts,
    frobenius,
)
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
    "check_refine_tol",
]

# Uniform start cells of omega_n on [0, pi), of which only the even half
# is evaluated up front.  The certification pass carries the accuracy;
# the grid only seeds it.
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
_TINY = float(np.finfo(np.float64).tiny)

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


def _combined_norms(A: np.ndarray, B: np.ndarray, cs: dict, p: float) -> dict[int, np.ndarray]:
    """Batched N(c_k A_l - s_k B_l) via Hermitian eigenvalues, keyed by lane.

    A and B are stacks of Cartesian parts, and cs[l] = (c, s) holds lane
    l's coefficient arrays, possibly empty; the result maps each lane of
    ``cs`` to its values.  The lanes' rows are solved as one batch in the
    order of ``cs``, at most _EIG_BATCH matrices at once, and none when
    there are no rows.  Each row broadcasts its lane's A and B, so no row
    copies them, and every entry is rounded as c * A - s * B rounds it.
    eigvalsh solves each matrix of a batch independently and
    schatten_value reduces each row as it reduces that row alone, so the
    values depend neither on the chunking nor on which other lanes share a
    batch.
    """
    spans, total = [], 0
    for l, (c, _) in cs.items():
        spans.append((l, total, total + len(c)))
        total += len(c)
    out = np.empty(total)
    for start in range(0, total, _EIG_BATCH):
        stop = min(start + _EIG_BATCH, total)
        H = np.empty((stop - start,) + A.shape[1:], dtype=A.dtype)
        for l, lo, hi in spans:
            # The part of lane l's rows inside this chunk.
            a, b = max(lo, start), min(hi, stop)
            if a < b:
                c, s = cs[l]
                rows = H[a - start : b - start]
                np.multiply(c[a - lo : b - lo, None, None], A[l], out=rows)
                rows -= s[a - lo : b - lo, None, None] * B[l]
        out[start:stop] = schatten_value(np.abs(np.linalg.eigvalsh(H)), p)
    return {l: out[lo:hi] for l, lo, hi in spans}


def _profile_values(
    A: np.ndarray, B: np.ndarray, thetas: dict, p: float, lanes: dict[int, _Lane] | None = None
) -> dict[int, np.ndarray]:
    """Profile samples N(cos(t_k) A_l - sin(t_k) B_l) at the angles thetas[l], as _combined_norms.

    With ``lanes``, each lane l of ``thetas`` has its samples, none
    empty, folded into lanes[l]: its best sample and that sample's angle
    move to the largest of them when it is higher.
    """
    values = _combined_norms(A, B, {l: (np.cos(t), np.sin(t)) for l, t in thetas.items()}, p)
    if lanes is not None:
        for l, row in values.items():
            lane = lanes[l]
            i = int(np.argmax(row))
            if row[i] > lane.value:
                lane.value, lane.theta = float(row[i]), float(thetas[l][i])
    return values


@lru_cache(maxsize=1)
def _part_forms() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The (c, s) rows of the lane kinds whose samples are the same on every grid.

    "graded" holds theta = 0 and pi/2, the even samples 0 and grid/4 of
    every grid (_stage_forms): (cos 0, sin 0) = (1, 0), the row Re X, and
    (0, -1), the row Im X.  "re" and "im" are the one part of a Hermitian
    and a skew-Hermitian lane.  The arrays are shared between calls, so
    they are read-only.
    """
    rows = {"graded": ([1.0, 0.0], [0.0, -1.0]), "re": ([1.0], [0.0]), "im": ([0.0], [-1.0])}
    forms = {kind: (np.array(c), np.array(s)) for kind, (c, s) in rows.items()}
    for pair in forms.values():
        for a in pair:
            a.setflags(write=False)
    return forms


@lru_cache(maxsize=8)
def _stage_forms(grid: int) -> tuple[np.ndarray, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The even angles 2kh of a grid of step h = pi/grid, their order by stage, and the (c, s) rows of each lane kind.

    "general" holds the even samples.  The one at pi/2 (k = grid/4, as
    the grid is a multiple of 4) takes (c, s) = (0, -1) exactly, the row
    Im X, so it is N(Im X) bit for bit: the start bound reads it there.
    "rest" holds the even samples other than theta = 0 and pi/2, and
    the order lists the even samples' indices as "graded" (_part_forms,
    whose kinds the forms include) and then "rest" evaluate them.  The
    arrays are shared between calls, so they are read-only.
    """
    h = math.pi / grid
    even = np.arange(0, grid, 2) * h
    c, s = np.cos(even), np.sin(even)
    c[grid // 4], s[grid // 4] = 0.0, -1.0
    order = np.array([0, grid // 4] + [k for k in range(1, grid // 2) if k != grid // 4])
    forms = {"general": (c, s), "rest": (c[order[2:]], s[order[2:]])}
    for a in (even, order, *forms["general"], *forms["rest"]):
        a.setflags(write=False)
    return even, order, forms | _part_forms()


@lru_cache(maxsize=8)
def _coarse_cos(grid: int) -> float:
    """cos(h + _PAD) for a grid of step h = pi/grid, by numpy: the divisor of a coarse cell's covering term."""
    return float(np.cos(math.pi / grid + _PAD))


def radius_profile(spec: NormSpec, X, theta: float) -> float:
    """N(Re(e^{i*theta} X)) = N(cos(theta) Re X - sin(theta) Im X).

    X is scaled as omega_n scales it, and the value scaled back.
    """
    Xs, far = as_scaled_stack(X)
    A, B = cartesian_parts(Xs)
    value = _profile_values(A, B, {0: np.array([float(theta)])}, spec.schatten_p)[0][0]
    return math.ldexp(float(value), far.get(0, 0))


@dataclass(slots=True)
class _Lane:
    """Certification state of one general lane (neither Hermitian nor skew-Hermitian) of _certified_radii.

    ``value`` is the lane's best profile sample and ``theta`` its angle;
    ``slack`` is the sample error e of every sample (_sample_error);
    ``g_stop`` is the target width, ``bound`` the certified upper bound
    on sup f so far, and ``settled`` the largest covering term of the
    lane's cells that passed (-inf while none has).
    """

    value: float
    theta: float
    slack: float
    g_stop: float
    bound: float
    settled: float = -math.inf


def _covering_terms(values: np.ndarray, r: np.ndarray | float, slack: float) -> np.ndarray:
    """Covering terms (f(c) + e) / cos(r) of cells with centres c and half-widths r.

    ``values`` are the computed samples f(c) and ``slack`` is e, the
    sample error; arrays broadcast.  If the cells cover [0, pi) modulo pi,
    the largest term bounds sup f: the profile is a pointwise maximum of
    sinusoids, so the certificate attaining the supremum is a sinusoid of
    amplitude sup f peaking there, and the centre c of a cell containing
    that peak has f(c) >= sup f * cos(r).

    Error model: every computed sample is within e of the exact f(c)
    (_sample_error), so the exact f(c) <= values + e, and e is added before
    the division; adding it after would understate the term by
    e (1/cos(r) - 1).  A computed centre lies within 4 pi eps of its exact
    position, which the _PAD in every half-width covers.  The term's own
    three roundings (sum, cosine, quotient), a few eps relative, are not
    padded.
    """
    return (values + slack) / np.cos(r)


def _flag_grading(X: np.ndarray, fro: float) -> np.ndarray | None:
    """Hermitian K with KX - XK = -X when X is a sum of shifts, else None; ``fro`` is ||X||_F.

    One SVD X = U S V* gives the polar part W = U_r V_r*, a partial
    isometry over the r singular values above LAPACK_BACKWARD * n^2 * eps
    * ||X||_F; r = n means X is nonsingular, and None is returned.  Let X
    be unitarily similar to an orthogonal sum of weighted shifts (any
    weights and phases, any chain lengths, zero blocks included).  Then W
    is the same sum of unit shifts, and W^j W^j* is the projector onto the
    range of X^j, so M = sum_{j >= 1} W^j W^j* is diag(m - 1 - i) on a
    chain e_0 <- e_1 <- ... <- e_{m-1} of length m.  X maps e_{i+1} to a
    multiple of e_i, one level of M up, so MX - XM = X, and K = (tr M / n)
    I - M grades X; the trace shift only centres K.  M is summed by
    doubling: from M = W W* and P = W, each step M <- M + P M P*, P <- P^2
    doubles the number of terms, and ceil(log2(n - 1)) steps reach the
    power n - 1, beyond which a nilpotent W vanishes.  For any other
    singular X, K is some Hermitian matrix; the rotation bound holds for
    every K, so a misjudged rank or a non-shift X costs tightness, never
    soundness.  Only _certified_radii calls this, for a general lane whose
    trace is within this same tolerance of 0 (a grading needs tr X = 0).
    """
    n = X.shape[0]
    tol = LAPACK_BACKWARD * n * n * _EPS * fro
    U, s, Vh = np.linalg.svd(X)
    r = int(np.count_nonzero(s > tol))
    if r == n:
        return None
    P = U[:, :r] @ Vh[:r]
    Ph = P.conj().T
    M = P @ Ph
    for step in range(max(0, n - 2).bit_length()):
        if step:
            P = P @ P
            Ph = P.conj().T
        M += P @ M @ Ph
    K = (M.trace().real / n) * _identity(n) - M
    K += K.conj().T
    return np.multiply(0.5, K, out=K)


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """The n x n identity of _flag_grading, shared between calls, so read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _rotation_drift(X: np.ndarray, K: np.ndarray, p: float, fro: float) -> float:
    """Upper bound on N(R), R = KX - XK + X, for the rotation bound (_rotation_bound); ``fro`` is ||X||_F.

    Error model, as in _frobenius_radii:
    - N(R) <= n^max(0, 1/p - 1/2) ||R||_F.  The computed R differs from
      the exact one by at most 4 n eps (2 ||K||_F + 1) ||X||_F (two
      matrix products and two sums), and the computed ||R||_F is within
      n^2 eps of relative error (recursive summation).
    """
    n = X.shape[0]
    R = K @ X
    R -= X @ K
    R += X
    fro_R = frobenius(R) * (1.0 + n * n * _EPS)
    fro_R += 4.0 * n * _EPS * (2.0 * frobenius(K) + 1.0) * fro
    return n ** max(0.0, 1.0 / p - 0.5) * fro_R


def _rotation_bound(value: float, slack: float, h: float, drift: float) -> float:
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
    4 pi eps N(R).  ``drift`` bounds N(R) (_rotation_drift), and each
    sample is within ``slack`` of the exact f(theta_j): the sample error e
    of _sample_error.  The bound is tight when K grades X (KX - XK = -X),
    as _flag_grading's K does for a shift.
    """
    return value + slack + (0.5 * h + _PAD) * drift


def _sample_error(A: np.ndarray, B: np.ndarray, p: float) -> float:
    """Bound on |computed - exact| of every profile sample of X = A + iB.

    n^(1/p) ((LAPACK_BACKWARD + 1) n + 4) eps (||A||_F + ||B||_F): the
    eigensolver's backward error, forming the Cartesian parts and
    H = cos A - sin B, and summing n moduli.
    """
    return _sample_factor(A.shape[0], p) * (frobenius(A) + frobenius(B))


def _sample_factor(n: int, p: float) -> float:
    """n^(1/p) ((LAPACK_BACKWARD + 1) n + 4) eps: _sample_error over ||A||_F + ||B||_F."""
    return n ** (1.0 / p) * ((LAPACK_BACKWARD + 1.0) * n + 4.0) * _EPS


def _frobenius_radii(A: np.ndarray, B: np.ndarray, spec: NormSpec) -> list[RadiusEstimate]:
    """Closed-form Frobenius radius of each X_l = A_l + i B_l, with no eigensolve.

    With a = ||A||_F^2, b = ||B||_F^2 and c = <A, B> = Re tr(AB),
    f(theta)^2 = a cos^2 - 2 c sin cos + b sin^2 is the quadratic form of
    G = [[a, -c], [-c, b]] at (cos theta, sin theta), so sup f^2 =
    lambda_max(G) = (a + b)/2 + hypot((a - b)/2, c), attained at the angle
    of the top eigenvector, 2 theta* = atan2(-2c, a - b).  ``value`` is
    the computed sqrt(lambda_max(G)), the centre of the closed form, and
    ``cert_error`` lifts it to the padded upper end.

    Rounding pad: each of a, b, c sums n^2 products of entries of the
    computed Cartesian parts, which are within eps of exact entrywise, so
    each is within (n^2 + 6) eps (a + b) of its exact value (recursive
    summation, Higham, Accuracy and Stability, section 3.1, plus
    Cauchy-Schwarz for c); lambda_max(G) is 1-Lipschitz in each of a, b, c
    and its formula adds at most 4 eps (a + b).  The pad is twice the sum,
    (6 n^2 + 44) eps (a + b), added under the square root.
    """
    n = A.shape[1]
    estimates = []
    for Al, Bl in zip(A, B):
        a = float(np.vdot(Al, Al).real)
        b = float(np.vdot(Bl, Bl).real)
        if a + b == 0.0:
            estimates.append(RadiusEstimate(0.0, 0.0, 0.0, spec))
            continue
        c = float(np.vdot(Al, Bl).real)
        top = 0.5 * (a + b) + math.hypot(0.5 * (a - b), c)
        value = math.sqrt(top)
        upper = math.sqrt(top + (6 * n * n + 44) * _EPS * (a + b))
        theta = (0.5 * math.atan2(-2.0 * c, a - b)) % math.pi
        estimates.append(RadiusEstimate(value, theta, upper - value, spec))
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
    (cell k sits at angle k h for every integer k).  Only the values of
    open cells are read, so a cell left unevaluated may hold NaN.
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
    cells: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
    lanes: dict[int, _Lane],
) -> None:
    """Certify by subdivision, lowering the bound of every lane in ``cells``.

    cells[l] = (theta, r, values) holds lane l's cells, possibly none:
    centres theta, half-widths r and profile values.  Those cells and the
    cells of lanes[l] that already passed, whose largest covering term is
    its ``settled``, cover [0, pi) modulo pi.  Each round takes every
    cell's covering term (_covering_terms) and prunes the cells whose term
    is within the lane's g_stop of its best sample, raising ``settled`` to
    their largest term.  The settled cells and the active ones still cover
    the period, so the lane's ``bound`` falls to the largest term of
    either (and no lower than the best sample).  The active cells are
    split in halves, and the halves of every open lane are evaluated in
    one batch, which feeds each lane's best sample, and carried to the
    next round as its cells.  A lane closes when its bound is within
    g_stop of its best sample, at the latest when no cell stays active; a
    lane whose cells already close, such as one without cells, leaves in
    the first round, before any evaluation.  The bound stays valid at
    every stage, so exhausting the budget only enlarges cert_error.
    """
    for _ in range(_MAX_ROUNDS):
        children = {}
        for l, (theta, r, values) in cells.items():
            lane = lanes[l]
            terms = _covering_terms(values, r, lane.slack)
            keep = terms - lane.value > lane.g_stop
            top = float(terms.max(initial=-math.inf))
            lane.bound = min(lane.bound, max(lane.value, lane.settled, top))
            lane.settled = max(lane.settled, float(terms.max(where=~keep, initial=-math.inf)))
            count = int(keep.sum())
            if lane.bound - lane.value <= lane.g_stop or 2 * count > _MAX_CELLS:
                continue
            th = theta[keep]
            half = 0.5 * r[keep]
            children[l] = (np.concatenate([th - half, th + half]), np.concatenate([half + _PAD] * 2))
        if not children:
            break
        values = _profile_values(A, B, {l: theta for l, (theta, _) in children.items()}, p, lanes)
        cells = {l: (theta, r, values[l]) for l, (theta, r) in children.items()}


def _fit_round(
    A: np.ndarray, B: np.ndarray, p: float, peaks: dict[int, list[float]], s: float, lanes: dict[int, _Lane]
) -> dict[int, list[tuple[float, float, float, bool]]]:
    """One three-point parabola fit per peak, all in one batched eigvalsh.

    peaks[l] lists lane l's peaks, each sampled at t - s, t, t + s; the
    samples feed the best sample of lanes[l].  Returns, per lane and in
    the same order, (vertex, curvature -f'', highest sample, clipped) per
    peak, clipped when the vertex step reached the spacing s.
    """
    points = {l: np.array([[t - s, t, t + s] for t in theta]).ravel() for l, theta in peaks.items()}
    fits = {}
    for l, values in _profile_values(A, B, points, p, lanes).items():
        y = values.tolist()
        fits[l] = []
        for k, t in enumerate(peaks[l]):
            step, kappa = _parabola(*y[3 * k : 3 * k + 3], s)
            fits[l].append((t + step, kappa, max(y[3 * k : 3 * k + 3]), abs(step) == s))
    return fits


def _fit_peaks(
    A: np.ndarray, B: np.ndarray, p: float, peaks: dict[int, list[float]], h: float, lanes: dict[int, _Lane]
) -> dict[int, list[tuple[float, float, float]]]:
    """Refine peak estimates with two rounds of three-point parabola fits.

    peaks[l] lists the start angles of lane l's peaks.  The first round,
    at spacing h _FIT_GRID_FRACTION, moves each peak to its fitted vertex;
    a peak whose step was clipped to the spacing (the start lay further
    away) repeats that round once from where it got to.  The second
    round, at _FIT_SPACING, gives the final vertex and its curvature.
    Returns, per lane and in the same order, (vertex, curvature -f'',
    highest sample of the last round) per peak.  No bound relies on the
    fit: a poor one only costs cells.  Every sample feeds the best sample
    of its lane in ``lanes``.
    """
    s = h * _FIT_GRID_FRACTION
    fits = _fit_round(A, B, p, peaks, s, lanes)
    clipped = {l: [fit[0] for fit in lane if fit[3]] for l, lane in fits.items()}
    clipped = {l: theta for l, theta in clipped.items() if theta}
    if clipped:
        again = {l: iter(lane) for l, lane in _fit_round(A, B, p, clipped, s, lanes).items()}
        fits = {l: [next(again[l]) if fit[3] else fit for fit in lane] for l, lane in fits.items()}
    fits = _fit_round(A, B, p, {l: [fit[0] for fit in lane] for l, lane in fits.items()}, _FIT_SPACING, lanes)
    return {l: [fit[:3] for fit in lane] for l, lane in fits.items()}


def _covering_cells(
    A: np.ndarray, B: np.ndarray, p: float, rows: dict[int, np.ndarray], h: float, lanes: dict[int, _Lane]
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Ladder cells of each lane, as _subdivide takes them.

    ``rows`` maps each lane to the even samples 2kh of its start grid of
    step h; every lane has an open coarse cell.  A cell passes on
    _subdivide's test, its term within the lane's g_stop of its best
    sample, and the largest term of the lane's passing cells becomes its
    ``settled``.  A passing coarse cell, of
    half-width h around an even sample, covers the fine cell (half-width
    h/2) at its centre and half of each odd one beside it.  One batched
    eigvalsh evaluates the odd samples (2k +- 1)h next to the open coarse
    cells.  Fine cells pass
    on the same test (as does each whose coarse cell passed), and the open
    ones form blocks, one per sampled peak (_open_blocks).  Each block's
    peak starts at the vertex of the parabola through its three grid
    samples, all evaluated (an open even cell has both odd neighbours), is
    refined by _fit_peaks, and the block is replaced by a _ladder around
    it; the ladders of every lane are evaluated in one batch, and none is
    when no lane has an open block.  Every sample feeds its lane's best
    sample.  Returns cells[l] = (theta, r, values), lane l's ladder cells
    for every lane of ``rows`` (empty arrays without an open block), with
    centres theta, padded half-widths r and profile values; they and the
    passing cells cover the period.
    """
    grid = 2 * len(next(iter(rows.values())))
    odd = {}
    for l, row in rows.items():
        lane = lanes[l]
        terms = _covering_terms(row, h + _PAD, lane.slack)
        open_ = terms - lane.value > lane.g_stop
        lane.settled = float(terms.max(where=~open_, initial=-math.inf))
        # Odd sample 2k + 1 lies between coarse cells k and k + 1.
        odd[l] = 2 * np.flatnonzero(open_ | np.roll(open_, -1)) + 1
    # Each lane's fine grid, NaN where a passing coarse cell left a sample
    # out; a NaN cell is never open.
    fine, blocks, peaks = {}, {}, {}
    for l, values in _profile_values(A, B, {l: k * h for l, k in odd.items()}, p, lanes).items():
        lane = lanes[l]
        row = np.full(grid, math.nan)
        row[0::2] = rows[l]
        row[odd[l]] = values
        terms = _covering_terms(row, 0.5 * h + _PAD, lane.slack)
        open_ = terms - lane.value > lane.g_stop
        lane.settled = max(lane.settled, float(np.nanmax(terms, where=~open_, initial=-math.inf)))
        fine[l] = row
        blocks[l] = _open_blocks(row, open_)
        for k, _, _ in blocks[l]:
            y = row.take([k - 1, k, k + 1], mode="wrap").tolist()
            peaks.setdefault(l, []).append(k * h + _parabola(*y, h)[0])
    centres, radii = {}, {}
    for l, fits in (_fit_peaks(A, B, p, peaks, h, lanes) if peaks else {}).items():
        lane = lanes[l]
        rungs = ([], [])
        for (k, first, last), (peak, kappa, top) in zip(blocks[l], fits):
            top = max(top, float(fine[l][k % grid]))
            # A lower peak needs its cells' terms below the lane's best only.
            g = max(lane.g_stop - lane.slack, 0.0) + lane.value - top
            at, widths = _ladder(peak, min(kappa, top), top, g, (first - 0.5) * h, (last + 0.5) * h)
            rungs[0].extend(at)
            rungs[1].extend(widths)
        centres[l] = np.array(rungs[0])
        radii[l] = np.array(rungs[1]) + _PAD
    values = _profile_values(A, B, centres, p, lanes) if centres else {}
    empty = np.empty(0)
    return {l: (centres[l], radii[l], values[l]) if l in centres else (empty, empty, empty) for l in rows}


def check_grid(grid) -> int:
    """``grid`` as a Python int; ValueError unless it is a multiple of 4 and at least 4, not a bool.

    Only an even grid puts an odd sample (2k + 1)h between every two
    neighbouring coarse cells k and k + 1, the last at pi - h, and only a
    multiple of 4 puts an even sample at pi/2, the row Im X that gives
    N(Im X) (_stage_forms).  A grid of 4 evaluates theta = 0 and pi/2
    first: the Cartesian bracket.
    """
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 4 or grid % 4:
        raise ValueError(f"grid must be a multiple of 4 and at least 4, got {grid}")
    return int(grid)


def check_refine_tol(refine_tol) -> float:
    """``refine_tol`` as a Python float; ValueError unless it is positive (NaN is not) and not a bool."""
    if isinstance(refine_tol, bool) or not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    return float(refine_tol)


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
        Resolution of the uniform start grid on [0, pi), of step
        h = pi/grid; a multiple of 4 and at least 4 (``check_grid``).
        Its grid/2 even samples are evaluated first, among them theta = 0
        (Re X) and pi/2 (Im X), and an odd sample only beside a coarse
        cell (half-width h) that the covering test leaves open.
    refine_tol:
        Target width of the certificate, relative to the profile's
        Lipschitz constant N(Re X) + N(Im X).  A Hermitian or
        skew-Hermitian X takes the closed form, whose certificate is the
        sample error alone, whatever the tolerance.

    Returns a RadiusEstimate with value the best profile sample found
    (for the Frobenius norm, the closed form's centre), the angle
    attaining it, and a certified error so that the true supremum lies
    in [value, value + cert_error]; several matrices give a
    tuple of estimates, one per matrix.  The matrices run in lockstep as
    lanes of one batch: every stage is one batched eigvalsh over the
    lanes still open, and a lane leaves as soon as it is certified.  Each
    lane's estimate is bit for bit the one a call with that matrix alone
    returns.  A lane outside the safe range of linalg.as_scaled_stack runs
    scaled by the power of two that brings its largest part to [1/2, 1),
    and its value and cert_error are scaled back exactly (cert_error
    rounded up where either comes out subnormal); lanes in range keep
    their bits.

    The Frobenius norm takes the closed form sqrt(lambda_max) of a 2x2
    Gram matrix, which samples no grid, makes no numpy.linalg call and
    needs no tolerance.  In every other norm a Hermitian or
    skew-Hermitian X is one eigvalsh of its nonzero part.  Any other X
    samples the even half of the start grid anchored at theta = 0 in one
    eigvalsh; its samples at 0 and pi/2 are N(Re X) and N(Im X), and
    every estimate lies within the start bound hypot(N(Re X), N(Im X))
    plus the sample error.  A lane whose trace is within rounding of 0 is
    graded first by one SVD, and samples theta = 0 and pi/2 alone in that
    eigvalsh when its one-sample rotation bound can reach the target: a
    circular X (a Jordan block, a weighted shift) closes there, on one
    eigvalsh of 2 matrices formed by one broadcast when every lane is
    graded, and a graded lane left open takes the rest of its even
    samples in one more eigvalsh and tries the bound again on them.  The
    setup before that eigvalsh is one pass over the lanes (the module
    docstring), and the caller's matrices are never written to.  A lane
    whose coarse cells all pass is done after the first eigvalsh, as is
    every lane at refine_tol 1.0 on a grid of 4 (the Cartesian bracket, 2
    matrices), at 0.2 on a grid of 8 or at 1e-2 on the default grid.
    Otherwise one eigvalsh evaluates the odd samples beside the open
    coarse cells, each open peak is fitted with two batched parabola
    rounds and one ladder of cells is evaluated around the fitted peaks,
    which makes 5 eigvalsh calls in all for most random matrices (one
    more when a first fit round clips).  A lane whose ladder leaves it
    open subdivides.
    """
    Xs, far = as_scaled_stack(X, *more)
    grid = check_grid(grid)
    refine_tol = check_refine_tol(refine_tol)
    A, B = cartesian_parts(Xs)
    if spec.schatten_p == 2.0:
        estimates = _frobenius_radii(A, B, spec)
    else:
        estimates = _certified_radii(spec, Xs, A, B, grid, refine_tol)
    for l, e in far.items():
        est = estimates[l]
        value, cert_error = math.ldexp(est.value, e), math.ldexp(est.cert_error, e)
        if min(value, cert_error) < _TINY:
            # A subnormal result may have rounded down.
            cert_error = math.nextafter(cert_error, math.inf)
        estimates[l] = RadiusEstimate(value, est.theta_star, cert_error, spec)
    return estimates[0] if len(estimates) == 1 else tuple(estimates)


def _certified_radii(
    spec: NormSpec, Xs: np.ndarray, A: np.ndarray, B: np.ndarray, grid: int, refine_tol: float
) -> list[RadiusEstimate]:
    """omega_n for every lane of a stack, in any norm but the Frobenius one."""
    p = spec.schatten_p
    n = Xs.shape[1]
    h = math.pi / grid
    # Stage 1, one eigvalsh.  A general lane evaluates the even samples
    # 2kh of the grid, the first (theta = 0) being Re X itself and the one
    # at pi/2 Im X (c = 0, s = -1).  The profile of a Hermitian X is
    # |cos theta| N(Re X), and that of a skew-Hermitian X is
    # |sin theta| N(Im X), so such a lane evaluates its nonzero part
    # alone; X = 0 evaluates nothing.  A general lane starts from
    # f(theta) <= |cos theta| N(Re X) + |sin theta| N(Im X) <=
    # hypot(N(Re X), N(Im X)), which is exact for the trace norm of an
    # accretive-dissipative X; the two computed norms are off by at most
    # e's shares of ||Re X||_F and ||Im X||_F, so the hypot moves by at
    # most e.
    # A circular X is nilpotent, so a general lane whose trace is within
    # the grading's own tolerance of 0 is graded first, and one that gets
    # a K evaluates theta = 0 and pi/2 alone: the rotation bound on the
    # one-sample grid (step pi) may close it there.  ||X||_F is taken once
    # for that screen, the grading's tolerance and the rotation pads, and
    # only for a lane whose trace is at most 2 n e, e the sample error:
    # e is at least LAPACK_BACKWARD n eps (||Re X||_F + ||Im X||_F), and
    # ||X||_F <= ||Re X||_F + ||Im X||_F, which the computed norms keep to
    # a few ulps in as_scaled_stack's range, so a larger trace exceeds the
    # tolerance LAPACK_BACKWARD n^2 eps ||X||_F too.
    # The lanes are set up in one pass: the parts' Frobenius norms give
    # the sample error and, where they are positive, the test that a part
    # is nonzero (a norm whose squares underflow to 0 leaves that test to
    # the part's entries).  When every lane is of one kind (general, as in
    # every suite draw, graded, as a circular X alone, Hermitian or
    # skew-Hermitian), one broadcast forms all lanes' samples, each entry
    # rounded as _combined_norms rounds it; otherwise _combined_norms forms
    # each lane's own rows.  A lane's closing test then runs on Python
    # floats.
    sample = _sample_factor(n, p)
    trace = np.abs(Xs.trace(axis1=1, axis2=2)).tolist()
    estimates = [None] * len(Xs)
    kinds, slacks, drifts = {}, {}, {}
    for l, X in enumerate(Xs):
        a, b = frobenius(A[l]), frobenius(B[l])
        re, im = a > 0.0 or bool(A[l].any()), b > 0.0 or bool(B[l].any())
        if not (re or im):
            estimates[l] = RadiusEstimate(0.0, 0.0, 0.0, spec)
            continue
        slacks[l] = slack = sample * (a + b)
        kinds[l] = "general" if re and im else "re" if re else "im"
        if not (re and im) or trace[l] > 2.0 * n * slack:
            continue
        fro = frobenius(X)
        if trace[l] <= LAPACK_BACKWARD * n * n * _EPS * fro:
            K = _flag_grading(X, fro)
            if K is not None:
                drifts[l] = drift = _rotation_drift(X, K, p, fro)
                # g_stop is at most half n^max(0, 1/p - 1/2) (||Re X||_F +
                # ||Im X||_F) refine_tol, and ||Re X||_F + ||Im X||_F <=
                # sqrt(2) ||X||_F; a lane whose one-sample gap exceeds that
                # takes its even grid at once.
                reach = 0.5 * n ** max(0.0, 1.0 / p - 0.5) * math.sqrt(2.0) * fro * refine_tol
                if _rotation_bound(0.0, slack, math.pi, drift) <= reach:
                    kinds[l] = "graded"
    # A grid's samples are formed only for a batch with a general lane.
    # The samples every lane takes, when they all take the same.
    shared = set(kinds.values())
    forms = _stage_forms(grid)[2] if "general" in shared else _part_forms()
    c, s = forms[shared.pop()] if len(kinds) == len(Xs) and len(shared) == 1 else ((), ())
    if 0 < len(Xs) * len(c) <= _EIG_BATCH:
        H = c[:, None, None] * A[:, None]
        H -= s[:, None, None] * B[:, None]
        values = enumerate(schatten_value(np.abs(np.linalg.eigvalsh(H)), p))
    else:
        values = _combined_norms(A, B, {l: forms[kind] for l, kind in kinds.items()}, p).items()
    rows, graded = {}, set()
    for l, row in values:
        kind = kinds[l]
        if kind == "graded":
            nA, nB = row.tolist()
            gap = _rotation_bound(nA, slacks[l], math.pi, drifts[l]) - nA
            if gap <= 0.5 * (nA + nB) * refine_tol:
                estimates[l] = RadiusEstimate(nA, 0.0, gap, spec)
                continue
            graded.add(l)
        elif kind != "general":
            estimates[l] = RadiusEstimate(float(row[0]), 0.0 if kind == "re" else 0.5 * math.pi, slacks[l], spec)
            continue
        rows[l] = row
    if not rows:
        return estimates

    # A graded lane left open evaluates the rest of its even grid, all in
    # one eigvalsh (none on a grid of 4, which has no other even sample),
    # puts its samples back in grid order and tries the rotation bound
    # again on that grid (step 2h).  A covering term grows with its
    # sample, so some coarse cell of a lane is open exactly when its best
    # sample's is; a lane whose coarse cells all pass closes on them, as
    # _covering_cells and _subdivide would close it.
    even, order, forms = _stage_forms(grid)
    rest = {l: forms["rest"] for l in graded}
    for l, values in (_combined_norms(A, B, rest, p) if rest else {}).items():
        row = np.empty(len(even))
        row[order] = np.concatenate((rows[l], values))
        rows[l] = row
    # The best sample, its angle and its covering term are Python floats,
    # with the bits of _covering_terms (the cosine is numpy's); only a lane
    # left open takes a _Lane.
    cos_h = _coarse_cos(grid)
    lanes = {}
    for l, row in list(rows.items()):
        samples = row.tolist()
        slack, nA, nB = slacks[l], samples[0], samples[grid // 4]
        g_stop, bound = 0.5 * (nA + nB) * refine_tol, math.hypot(nA, nB) + slack
        value = max(samples)
        theta = float(even[samples.index(value)])
        if l in drifts:
            gap = _rotation_bound(value, slack, 2.0 * h, drifts[l]) - value
            if gap <= g_stop:
                estimates[l] = RadiusEstimate(value, theta, gap, spec)
                del rows[l]
                continue
        term = (value + slack) / cos_h
        if term - value <= g_stop:
            estimates[l] = RadiusEstimate(value, theta, max(0.0, min(bound, term) - value), spec)
            del rows[l]
        else:
            lanes[l] = _Lane(value, theta, slack, g_stop, bound)
    if not rows:
        return estimates

    # Certification of the lanes with an open coarse cell: cells covering
    # the period from the two-stage grid and a ladder around each open
    # peak, subdivided only where they leave a lane open.
    _subdivide(A, B, p, _covering_cells(A, B, p, rows, h, lanes), lanes)
    for l in rows:
        lane = lanes[l]
        estimates[l] = RadiusEstimate(lane.value, lane.theta % math.pi, max(0.0, lane.bound - lane.value), spec)
    return estimates


def omega(X, grid: int = DEFAULT_GRID, refine_tol: float = DEFAULT_REFINE_TOL) -> RadiusEstimate:
    """Classical numerical radius: omega_n with the operator norm."""
    return omega_n(OPERATOR, X, grid=grid, refine_tol=refine_tol)


def _support_points(X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Support points <Xv, v>, v a top eigenvector of Re(e^{-i*theta} X).

    When the top eigenvalue is degenerate (gap below 1e-12) the first
    eigenvector attaining it is used; any maximizer yields a valid
    support point.  At most _EIG_BATCH angles go to one eigh, so memory
    does not grow with the number of angles; eigh solves each matrix of a
    batch independently, so the points do not depend on the chunking.
    """
    A, B = cartesian_decompose(X)
    c = np.cos(thetas)
    s = np.sin(thetas)
    points = np.empty(len(thetas), dtype=np.complex128)
    for start in range(0, len(thetas), _EIG_BATCH):
        chunk = slice(start, start + _EIG_BATCH)
        H = c[chunk, None, None] * A + s[chunk, None, None] * B
        w, V = np.linalg.eigh(H)
        lam_max = w[:, -1]
        tol = 1e-12 * np.maximum(1.0, np.abs(lam_max))
        idx = (w >= (lam_max - tol)[:, None]).argmax(axis=1)
        v = V[np.arange(len(H)), :, idx]
        points[chunk] = np.einsum("ki,ij,kj->k", v.conj(), X, v)
    return points


def numerical_range_boundary(X, samples: int) -> list[RangePoint]:
    """Support points of the numerical range at angles 2*pi*k/samples."""
    X = as_matrix(X)
    if not isinstance(samples, (int, np.integer)) or samples < 4:
        raise ValueError(f"samples must be an integer >= 4, got {samples}")
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    pts = _support_points(X, thetas)
    return [RangePoint(float(t), complex(z)) for t, z in zip(thetas, pts)]
