"""Numerical range boundary, numerical radius, and its norm generalization.

The central object is the angle profile f(theta) = N(Re(e^{i*theta} X)),
whose supremum over theta defines the generalized numerical radius.  The
profile has period pi, is Lipschitz with constant L = N(Re X) + N(Im X),
and is a pointwise maximum of sinusoids of amplitude at most sup f (one
sinusoid per dual-norm certificate).  omega_n combines a uniform grid,
a few safeguarded Newton steps on the analytic profile from the best
cells (derivatives from one batched eigendecomposition per step), and a
subdivision pass whose per-cell upper caps come from that sinusoid
structure; the result is a lower bound ``value`` together with a
guaranteed gap ``cert_error`` so that the true supremum lies in
[value, value + cert_error].  Only the subdivision pass carries the
guarantee; the Newton steps just make ``value`` good early.
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
    """Batched N(cos(t) A - sin(t) B) via Hermitian eigenvalues."""
    c = np.cos(thetas)
    s = np.sin(thetas)
    H = c[:, None, None] * A - s[:, None, None] * B
    lam = np.linalg.eigvalsh(H)
    return np.atleast_1d(schatten_value(np.abs(lam), p))


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


def omega_n(
    spec: NormSpec,
    X,
    grid: int = DEFAULT_GRID,
    refine_tol: float = 1e-10,
    *,
    cert_floor: float = 0.0,
    max_cells: int = 200000,
    max_rounds: int = 48,
) -> RadiusEstimate:
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
    cert_floor:
        Optional larger width target for the certification pass only,
        trading a bigger (still guaranteed) cert_error for speed.
    max_cells, max_rounds:
        Budget for the certification pass; exhausting it enlarges
        cert_error but never invalidates it.

    Returns a RadiusEstimate with value the best profile sample found,
    the angle attaining it, and a certified error so that the true
    supremum lies in [value, value + cert_error].
    """
    X = as_matrix(X)
    if not isinstance(grid, (int, np.integer)) or grid < 8:
        raise ValueError(f"grid must be an integer >= 8, got {grid}")
    if not (refine_tol > 0):
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    A, B = cartesian_decompose(X)
    p = spec.schatten_p
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

    # Polish the most promising cells with Newton steps on the profile.
    top = np.argsort(values)[::-1][: min(8, grid)]
    _newton_polish(A, B, p, centers[top], h, refine_tol, best)

    # Certification: subdivide until the covering bound is within g_stop
    # of the best sample or the budget runs out.  The bound stays valid
    # at every stage, so exhausting the budget only enlarges cert_error.
    g_stop = 0.5 * lipschitz * max(refine_tol, cert_floor)
    slack = _EIG_SLACK * math.hypot(nA, nB)
    cell_theta = centers
    cell_val = values
    r = h / 2
    pruned_bound = -math.inf
    bound = min(math.hypot(nA, nB), float(values.max()) + lipschitz * h / 2) + slack
    for _ in range(max_rounds):
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
        if 2 * int(keep.sum()) > max_cells:
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
