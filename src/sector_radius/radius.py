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
blocks.  Otherwise the best cells are polished with a few safeguarded
Newton steps on the analytic profile (derivatives from one batched
eigendecomposition per step); the Newton steps only make ``value`` good
early.  The guarantee
then comes from one of two upper bounds.  For the operator norm, Ando's
dilation gives it with one Hermitian eigensolve of a 2n x 2n matrix.
Otherwise, and whenever that bound does not close, a subdivision pass
certifies with per-cell upper caps from the sinusoid structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, cartesian_decompose
from .norms import NormSpec, OPERATOR, hermitian_norm, schatten_value

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

# Newton steps taken from each of the best grid cells before certification.
_NEWTON_STEPS = 4

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

# Backward-error model of the dense Hermitian eigensolver: every computed
# eigenvalue of an m x m Hermitian M is within _EIG_BACKWARD * m * eps *
# ||M||_F of an exact one (Weyl's inequality applied to the backward error).
_EIG_BACKWARD = 4.0

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


def _profile_values(A: np.ndarray, B: np.ndarray, thetas: np.ndarray, p: float) -> np.ndarray:
    """Batched N(cos(t) A - sin(t) B) via Hermitian eigenvalues.

    At most _EIG_BATCH matrices are formed and solved at once; eigvalsh
    solves each matrix of a batch independently, so the values do not
    depend on the chunking.
    """
    out = np.empty(len(thetas))
    for start in range(0, len(thetas), _EIG_BATCH):
        t = thetas[start : start + _EIG_BATCH]
        H = np.cos(t)[:, None, None] * A - np.sin(t)[:, None, None] * B
        out[start : start + len(t)] = schatten_value(np.abs(np.linalg.eigvalsh(H)), p)
    return out


def radius_profile(spec: NormSpec, X, theta: float) -> float:
    """N(Re(e^{i*theta} X)) = N(cos(theta) Re X - sin(theta) Im X)."""
    X = as_matrix(X)
    A, B = cartesian_decompose(X)
    return float(_profile_values(A, B, np.asarray([float(theta)]), spec.schatten_p)[0])


class _Best:
    """Running argmax over batched profile evaluations."""

    __slots__ = ("value", "theta")

    def __init__(self):
        self.value = -math.inf
        self.theta = 0.0

    def update(self, thetas: np.ndarray, values: np.ndarray) -> None:
        i = int(np.argmax(values))
        if values[i] > self.value:
            self.value = float(values[i])
            self.theta = float(thetas[i])


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
    A: np.ndarray, B: np.ndarray, p: float, theta: np.ndarray, h: float, tol: float, best: _Best
) -> None:
    """Safeguarded Newton ascent from each start angle, one batched eigh per step.

    A lane steps only where its branch is concave (f'' < 0), and every
    step is clipped to [start - h, start + h].  A lane stops once its step
    is below ``tol``; all stop after _NEWTON_STEPS steps.  Every evaluated
    angle feeds ``best``; the certification pass does not rely on
    convergence here, so a stalled lane only costs extra rounds there.
    """
    lo = theta - h
    hi = theta + h
    for step in range(_NEWTON_STEPS + 1):
        c = np.cos(theta)[:, None, None]
        s = np.sin(theta)[:, None, None]
        lam, V = np.linalg.eigh(c * A - s * B)
        best.update(theta, np.atleast_1d(schatten_value(np.abs(lam), p)))
        if step == _NEWTON_STEPS:
            break
        dH = -s * A - c * B
        C = np.conj(np.swapaxes(V, -1, -2)) @ dH @ V
        first, second = _profile_slopes(lam, C, p)
        with np.errstate(divide="ignore", invalid="ignore"):
            target = np.clip(theta - first / second, lo, hi)
        move = (second < 0.0) & (np.abs(target - theta) > tol)
        if not move.any():
            break
        theta, lo, hi = target[move], lo[move], hi[move]


def _cell_caps(values: np.ndarray, r: float, M: float) -> np.ndarray:
    """Upper bound for sup f over cells [c - r, c + r] with f(c) = values.

    Every dual certificate contributes a sinusoid with amplitude at most
    M >= sup f and center value at most f(c).  A sinusoid peaking inside
    the cell is bounded by min(M, f(c)/cos r); one peaking outside by
    y cos r + sin r * sqrt(M^2 - y^2) with y = min(f(c), M cos r), which
    is where that expression is maximal.
    """
    cr = math.cos(r)
    sr = math.sin(r)
    y = np.minimum(values, M * cr)
    outside = y * cr + sr * np.sqrt(np.maximum(M * M - y * y, 0.0))
    inside = np.minimum(M, values / cr)
    return np.maximum(outside, inside)


def _covering_bound(values: np.ndarray, r: float) -> float:
    """Global bound max f(c_i) / cos(r) for cells of half-width r.

    The profile is a pointwise maximum of sinusoids, so the certificate
    attaining the supremum is a sinusoid peaking exactly there, with
    amplitude sup f.  The center c of the cell containing that peak then
    satisfies f(c) >= sup f * cos(r), which inverts to the bound.
    """
    return float(values.max()) / math.cos(r)


def _ando_bound(X: np.ndarray, gamma: float, tol: float) -> float:
    """Upper bound on w(X) from one eigensolve of a 2n x 2n Hermitian dilation.

    For every Hermitian Z, Re(e^{i*theta} X) is the compression V* M V of
    M(Z) = [[-Z, X], [X*, Z]] by the isometry V = [I; e^{i*theta} I] / sqrt(2),
    so w(X) <= lambda_max(M(Z)).  Ando's theorem (Acta Sci. Math. 34, 1973)
    makes this tight: if w(X) <= gamma, then Z = gamma (2Y - I), with Y the
    maximal solution of Y + A* Y^{-1} A = I and A = X / (2 gamma), leaves
    gamma I - M(Z) positive semidefinite with a vanishing Schur complement,
    so lambda_max(M(Z)) = gamma.  Y comes from cyclic reduction (Meini,
    Math. Comp. 71, 2002), stopped once an update of Y, which moves
    lambda_max by at most 2 gamma times its norm, is below ``tol``.

    The bound holds for whatever Hermitian Z the iteration returns, so an
    inaccurate Y costs tightness, never soundness.  M is formed exactly
    from X and Z; the eigensolver's backward error is added as
    _EIG_BACKWARD * 2n * eps * ||M||_F.  A divergent iteration (gamma below
    w(X)) yields a non-finite or loose bound, or raises LinAlgError.
    """
    n = X.shape[0]
    A = X / (2.0 * gamma)
    Q = np.eye(n, dtype=np.complex128)
    Y = Q.copy()
    with np.errstate(all="ignore"):
        for _ in range(_CR_STEPS):
            W = np.concatenate([A, A.conj().T], axis=1)
            # [[A* Q^-1 A, A* Q^-1 A*], [A Q^-1 A, A Q^-1 A*]]
            T = W.conj().T @ np.linalg.solve(Q, W)
            update = T[:n, :n]
            Y = Y - update
            Q = Q - update - T[n:, n:]
            A = T[n:, :n]
            # Stops on convergence and on a non-finite update alike.
            if not np.vdot(update, update).real > tol * tol:
                break
        Z = gamma * (Y + Y.conj().T - np.eye(n))
        M = np.block([[-Z, X], [X.conj().T, Z]])
        top = float(np.linalg.eigvalsh(M)[-1])
        return top + _EIG_BACKWARD * 2 * n * _EPS * float(np.linalg.norm(M))


def _flag_grading(X: np.ndarray) -> np.ndarray | None:
    """Hermitian K with KX - XK = -X when X is a nilpotent shift, else None.

    The orthogonal kernel flag of X has E_0 = ker X, and E_k is the
    kernel of X modulo E_{<k}, taken on the orthogonal complement of
    E_{<k}: with Q an orthonormal basis of that complement, it is the
    null space of Q* X Q, read off one SVD per level.  X maps each E_k
    into E_{<k}; for a (weighted) shift it maps E_k into E_{k-1}, and then
    K = sum_k (k - (m-1)/2) P_k, with P_k the projector onto E_k, satisfies
    KX - XK = -X.  A singular value counts as zero below
    _EIG_BACKWARD * n^2 * eps * ||X||_F (each of up to n levels adds an
    SVD backward error of about n eps ||X||_F).  An empty level means X is
    not nilpotent, and None is returned.  Callers measure how far K is
    from a grading, so a misjudged rank costs tightness, never soundness.
    """
    n = X.shape[0]
    tol = _EIG_BACKWARD * n * n * _EPS * float(np.linalg.norm(X))
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
    - Each sample is within n^(1/p) (_EIG_BACKWARD n + 4 + n) eps
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
    sample = n ** (1.0 / p) * ((_EIG_BACKWARD + 1.0) * n + 4.0) * _EPS
    sample *= float(np.linalg.norm(A)) + float(np.linalg.norm(B))
    return value + sample + (0.5 * h + 4.0 * math.pi * _EPS) * drift


def _frobenius_radius(A: np.ndarray, B: np.ndarray, spec: NormSpec) -> RadiusEstimate:
    """Closed-form Frobenius radius of X = A + iB.

    With a = ||A||_F^2, b = ||B||_F^2 and c = <A, B> = Re tr(AB),
    f(theta)^2 = a cos^2 - 2 c sin cos + b sin^2 is the quadratic form of
    G = [[a, -c], [-c, b]] at (cos theta, sin theta), so sup f^2 =
    lambda_max(G) = (a + b)/2 + hypot((a - b)/2, c), attained at the angle
    of the top eigenvector, 2 theta* = atan2(-2c, a - b).  ``value`` is the
    profile evaluated at theta*.

    Rounding pad: each of a, b, c sums n^2 products of entries of the
    computed Cartesian parts, which are within eps of exact entrywise, so
    each is within (n^2 + 6) eps (a + b) of its exact value (recursive
    summation, Higham, Accuracy and Stability, section 3.1, plus
    Cauchy-Schwarz for c); lambda_max(G) is 1-Lipschitz in each of a, b, c
    and its formula adds at most 4 eps (a + b).  The pad is twice the sum,
    (6 n^2 + 44) eps (a + b), added under the square root.
    """
    a = float(np.vdot(A, A).real)
    b = float(np.vdot(B, B).real)
    if a + b == 0.0:
        return RadiusEstimate(0.0, 0.0, 0.0, spec)
    c = float(np.vdot(A, B).real)
    top = 0.5 * (a + b) + math.hypot(0.5 * (a - b), c)
    n = A.shape[0]
    upper = math.sqrt(top + (6 * n * n + 44) * _EPS * (a + b))
    theta = (0.5 * math.atan2(-2.0 * c, a - b)) % math.pi
    value = float(_profile_values(A, B, np.asarray([theta]), 2.0)[0])
    return RadiusEstimate(value, theta, max(0.0, upper - value), spec)


def omega_n(spec: NormSpec, X, grid: int = DEFAULT_GRID, refine_tol: float = 1e-10) -> RadiusEstimate:
    """Generalized numerical radius sup_theta N(Re(e^{i*theta} X)).

    Parameters
    ----------
    spec:
        Norm descriptor.
    grid:
        Uniform samples of the profile on [0, pi); at least 8.
    refine_tol:
        Step size below which Newton polishing stops, and the target
        width of the certification pass.

    Returns a RadiusEstimate with value the best profile sample found,
    the angle attaining it, and a certified error so that the true
    supremum lies in [value, value + cert_error].  The Frobenius norm
    takes the closed form, which samples no grid and needs no tolerance.
    A flat start grid tries the rotation bound of a circular X first; the
    operator norm tries Ando's bound before subdividing.
    """
    X = as_matrix(X)
    if not isinstance(grid, (int, np.integer)) or grid < 8:
        raise ValueError(f"grid must be an integer >= 8, got {grid}")
    if not (refine_tol > 0):
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    A, B = cartesian_decompose(X)
    p = spec.schatten_p
    if p == 2.0:
        return _frobenius_radius(A, B, spec)
    nA = hermitian_norm(spec, A)
    nB = hermitian_norm(spec, B)
    lipschitz = nA + nB
    if lipschitz == 0.0:
        return RadiusEstimate(0.0, 0.0, 0.0, spec)

    def evaluate(thetas: np.ndarray) -> np.ndarray:
        return _profile_values(A, B, thetas, p)

    h = math.pi / grid
    centers = (np.arange(grid) + 0.5) * h
    values = evaluate(centers)
    best = _Best()
    best.update(centers, values)
    g_stop = 0.5 * lipschitz * refine_tol

    # A flat grid: try the rotation symmetry of a circular X.
    K = _flag_grading(X) if float(values.max() - values.min()) <= g_stop else None
    if K is not None:
        rotation = _rotation_bound(X, K, A, B, p, best.value, h)
        if rotation - best.value <= g_stop:
            return RadiusEstimate(best.value, best.theta, rotation - best.value, spec)

    # Polish the most promising cells with Newton steps on the profile.
    top = np.argsort(values)[::-1][: min(8, grid)]
    _newton_polish(A, B, p, centers[top], h, refine_tol, best)

    if math.isinf(p):
        # Ando's level sits g_stop/2 above the best sample.  A bound that
        # does not close (Newton found a local maximum only, or the
        # iteration broke down) falls through to subdivision; NaN
        # compares false.
        gamma = best.value + 0.5 * g_stop
        try:
            ando = _ando_bound(X, gamma, g_stop / (8.0 * gamma))
        except np.linalg.LinAlgError:
            ando = math.inf
        if ando - best.value <= g_stop:
            return RadiusEstimate(best.value, best.theta % math.pi, max(0.0, ando - best.value), spec)

    # Certification: subdivide until the covering bound is within g_stop
    # of the best sample or the budget runs out.  The bound stays valid
    # at every stage, so exhausting the budget only enlarges cert_error.
    slack = _EIG_SLACK * math.hypot(nA, nB)
    cell_theta = centers
    cell_val = values
    r = h / 2
    pruned_bound = -math.inf
    bound = min(math.hypot(nA, nB), float(values.max()) + lipschitz * h / 2) + slack
    for _ in range(_MAX_ROUNDS):
        # The global maximum lies either in a pruned cell (bounded at
        # prune time) or in an active one (covering bound applies).
        cover = max(best.value, _covering_bound(cell_val, r)) + slack
        bound = min(bound, max(cover, pruned_bound))
        if bound - best.value <= g_stop:
            break
        caps = _cell_caps(cell_val, r, bound) + slack
        keep = caps > best.value + g_stop
        if not keep.any():
            bound = min(bound, max(pruned_bound, best.value + g_stop))
            break
        dropped = ~keep
        if dropped.any():
            pruned_bound = max(pruned_bound, float(caps[dropped].max()))
        if 2 * int(keep.sum()) > _MAX_CELLS:
            break
        th = cell_theta[keep]
        r = r / 2
        cell_theta = np.concatenate([th - r, th + r])
        cell_val = evaluate(cell_theta)
        best.update(cell_theta, cell_val)
    cert_error = max(0.0, bound - best.value)
    return RadiusEstimate(best.value, best.theta % math.pi, cert_error, spec)


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
