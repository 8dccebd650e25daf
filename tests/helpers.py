"""Shared oracles for the test suite.

These deliberately re-derive quantities along different code paths than
the library: profiles are built from the exponential form of the
Hermitian part and norms are computed with inline formulas, so a dense
theta grid here is an independent check on the library's optimizer.
"""

from __future__ import annotations

import math

import numpy as np


def random_complex(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    G = random_complex(rng, n, scale)
    return (G + G.conj().T) / 2


def norm_of_svals(s: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norm from singular values along the last axis."""
    s = np.asarray(s, dtype=np.float64)
    if math.isinf(p):
        return s.max(axis=-1)
    return (s**p).sum(axis=-1) ** (1.0 / p)


def profile_abs_eigs(X: np.ndarray, samples: int) -> np.ndarray:
    """|eigenvalues| of Re(e^{i*theta} X) on a uniform theta grid over [0, pi)."""
    thetas = np.pi * np.arange(samples) / samples
    ph = np.exp(1j * thetas)
    H = 0.5 * (ph[:, None, None] * X + np.conj(ph)[:, None, None] * X.conj().T)
    return np.abs(np.linalg.eigvalsh(H))


def oracle_omega(X: np.ndarray, p: float, samples: int = 100000) -> float:
    """Dense-grid value of sup_theta N(Re(e^{i*theta} X))."""
    lam = profile_abs_eigs(np.asarray(X, dtype=np.complex128), samples)
    return float(norm_of_svals(lam, p).max())


def profile_at(X: np.ndarray, p: float, thetas: np.ndarray) -> np.ndarray:
    """N(Re(e^{i*theta} X)) at arbitrary angles, 256 matrices per eigvalsh."""
    X = np.asarray(X, dtype=np.complex128)
    out = []
    for start in range(0, len(thetas), 256):
        ph = np.exp(1j * thetas[start : start + 256])
        H = 0.5 * (ph[:, None, None] * X + np.conj(ph)[:, None, None] * X.conj().T)
        out.append(norm_of_svals(np.abs(np.linalg.eigvalsh(H)), p))
    return np.concatenate(out)


def refined_oracle_omega(
    X: np.ndarray, p: float, samples: int = 4096, peaks: int = 4
) -> float:
    """sup_theta N(Re(e^{i*theta} X)) by a dense grid plus local refinement.

    The ``peaks`` highest sampled local maxima of a uniform grid on
    [0, pi) are each refined by golden-section search over the two grid
    steps around them.  The result is a profile sample, so a lower bound
    on the supremum up to rounding, and on a smooth peak within rounding
    of it.
    """
    step = math.pi / samples
    thetas = step * np.arange(samples)
    f = profile_at(X, p, thetas)
    local = (f >= np.roll(f, 1)) & (f >= np.roll(f, -1))
    order = [k for k in np.argsort(f)[::-1] if local[k]][:peaks]
    best = -math.inf
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for k in order:
        a, b = thetas[k] - step, thetas[k] + step
        for _ in range(60):
            c, d = b - ratio * (b - a), a + ratio * (b - a)
            fc, fd = profile_at(X, p, np.array([c, d]))
            if fc >= fd:
                b = d
            else:
                a = c
        best = max(best, float(profile_at(X, p, np.array([0.5 * (a + b)]))[0]))
    return best


def oracle_resolution_slack(X: np.ndarray, p: float, samples: int) -> float:
    """Worst-case shortfall of the dense-grid oracle: L * (grid step) / 2."""
    X = np.asarray(X, dtype=np.complex128)
    A = (X + X.conj().T) / 2
    B = (X - X.conj().T) / 2j
    L = float(norm_of_svals(np.abs(np.linalg.eigvalsh(A)), p) + norm_of_svals(np.abs(np.linalg.eigvalsh(B)), p))
    return L * (math.pi / samples) / 2


def mp_sector_index(X: np.ndarray, dps: int = 50) -> float:
    """Sectoriality index of accretive X in mpmath at ``dps`` digits.

    The extreme arguments over W(X) are arctan of the extreme eigenvalues
    of A^{-1/2} B A^{-1/2} (A = Re X, B = Im X); the inverse square root
    comes from an eigendecomposition of A, not from a Cholesky factor,
    and the Cartesian parts are formed exactly from the input's doubles.
    """
    import mpmath

    with mpmath.workdps(dps):
        n = X.shape[0]
        Xm = mpmath.matrix([[mpmath.mpc(complex(X[i, j])) for j in range(n)] for i in range(n)])
        A = (Xm + Xm.H) / 2
        B = (Xm - Xm.H) / mpmath.mpc(0, 2)
        w, Q = mpmath.eighe(A)
        inv_sqrt = mpmath.diag([1 / mpmath.sqrt(mpmath.re(e)) for e in w])
        R = Q * inv_sqrt * Q.H
        lam = mpmath.eighe(R * B * R, eigvals_only=True)
        lam = [mpmath.re(v) for v in lam]
        return float(max(mpmath.atan(max(lam)), -mpmath.atan(min(lam)), 0))


def mp_frobenius_radius(X: np.ndarray, dps: int = 50) -> float:
    """sup_theta ||Re(e^{i*theta} X)||_F in mpmath at ``dps`` digits.

    The squared profile is the quadratic form of the Gram matrix of the
    Cartesian parts at (cos theta, -sin theta); its top eigenvalue comes
    from mpmath's symmetric eigensolver, with the parts formed exactly
    from the input's doubles.
    """
    import mpmath

    with mpmath.workdps(dps):
        n = X.shape[0]
        Xm = mpmath.matrix([[mpmath.mpc(complex(X[i, j])) for j in range(n)] for i in range(n)])
        A = (Xm + Xm.H) / 2
        B = (Xm - Xm.H) / mpmath.mpc(0, 2)

        def inner(P, R):
            return mpmath.re(mpmath.fsum(mpmath.conj(P[i, j]) * R[i, j] for i in range(n) for j in range(n)))

        G = mpmath.matrix([[inner(A, A), inner(A, B)], [inner(B, A), inner(B, B)]])
        return float(mpmath.sqrt(max(mpmath.eigsy(G, eigvals_only=True))))


def mp_schatten_norm(X: np.ndarray, p: float, dps: int = 50) -> float:
    """Schatten p-norm of X from mpmath's complex SVD at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        n = X.shape[0]
        Xm = mpmath.matrix([[mpmath.mpc(complex(X[i, j])) for j in range(n)] for i in range(n)])
        sigma = mpmath.svd_c(Xm, compute_uv=False)
        sigma = [abs(sigma[k]) for k in range(n)]
        if math.isinf(p):
            return float(max(sigma))
        return float(mpmath.fsum(v**p for v in sigma) ** (mpmath.mpf(1) / p))


def count_linalg_matrices(monkeypatch, names) -> list[int]:
    """Patch the ``numpy.linalg`` functions ``names`` to record matrices per call.

    Returns the list that each call of any of them appends its batch
    size to (1 for a single matrix).
    """
    counts: list[int] = []
    for name in names:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            counts.append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def count_hermitian_eig_matrices(monkeypatch) -> list[int]:
    """Matrices per call of numpy's Hermitian eigensolvers ``eigvalsh`` and ``eigh``."""
    return count_linalg_matrices(monkeypatch, ("eigvalsh", "eigh"))


def exact_positive_definite(H: np.ndarray, shift: float = 0.0, d: np.ndarray | None = None) -> bool:
    """Whether D H D - shift I is positive definite, decided exactly; D = diag(d), or I.

    H is complex Hermitian with double entries and is read from its lower
    triangle.  Every double is a dyadic rational, so an LDL* factorization
    in ``fractions.Fraction`` arithmetic on the real and imaginary parts
    is exact, and the matrix is positive definite exactly when every
    pivot of D is positive.
    """
    from fractions import Fraction

    n = len(H)
    scale = [Fraction(1) if d is None else Fraction(float(v)) for v in (np.ones(n) if d is None else d)]
    a = [
        [(scale[i] * scale[j] * Fraction(float(H[i, j].real)), scale[i] * scale[j] * Fraction(float(H[i, j].imag))) for j in range(i + 1)]
        for i in range(n)
    ]
    shift = Fraction(shift)
    L: list[list[tuple]] = [[] for _ in range(n)]
    pivots: list = []
    for j in range(n):
        # w_k = conj(L_jk) p_k, so that (L D L*)_ij = sum_k L_ik w_k.
        w = [(lr * p, -li * p) for (lr, li), p in zip(L[j], pivots)]
        pivot = a[j][j][0] - shift - sum(lr * wr - li * wi for (lr, li), (wr, wi) in zip(L[j], w))
        if pivot <= 0:
            return False
        pivots.append(pivot)
        for i in range(j + 1, n):
            sr, si = a[i][j]
            for (pr, pi), (wr, wi) in zip(L[i], w):
                sr -= pr * wr - pi * wi
                si -= pr * wi + pi * wr
            L[i].append((sr / pivot, si / pivot))
    return True
