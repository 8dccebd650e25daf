"""Dense complex matrix kernels shared by every other module.

Matrices are plain numpy complex128 arrays.  ``as_matrix`` is the
validation gate (square shape, finite entries); every public operation
routes its inputs through it, or through ``as_scaled_stack``, which makes
the same checks and scales matrices far from unit size.  All functions
are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "DomainError",
    "HermEigResult",
    "as_matrix",
    "as_stack",
    "as_scaled_stack",
    "adjoint",
    "frobenius",
    "is_hermitian",
    "cartesian_decompose",
    "cartesian_parts",
    "hadamard",
    "herm_eig",
    "singular_values",
    "block2x2",
    "is_psd",
    "pd_certificate",
    "unit_scaled",
    "matrix_to_obj",
    "matrix_from_obj",
    "read_matrix",
    "write_matrix",
]

# Relative asymmetry tolerated before an input is rejected as non-Hermitian.
HERMITIAN_RTOL = 1e-12

# Backward-error factor of the dense LAPACK solvers wrapped here (Golub and
# Van Loan, Matrix Computations, sections 8.1 and 8.6): every computed
# eigenvalue of an m x m Hermitian M is within LAPACK_BACKWARD * m * eps *
# ||M||_F of an exact one (Weyl's inequality applied to the backward
# error), and every computed singular value of an n x n X within
# LAPACK_BACKWARD * n * eps * sigma_1.
LAPACK_BACKWARD = 4.0


# A matrix whose largest real or imaginary part lies outside
# [1/_SAFE_HI, _SAFE_HI] is scaled before its norms and radii are taken
# (as_scaled_stack).  Inside, the squares of its entries and their sums
# stay finite, and the square of its largest part stays normal.
_SAFE_HI = 2.0**256


class DimensionError(ValueError):
    """Input has the wrong shape."""


class DomainError(ValueError):
    """Input violates a mathematical precondition."""


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    A = _square(x, name)
    if not np.isfinite(A).all():
        raise DomainError(f"{name} contains non-finite entries")
    return A


def _square(x, name: str) -> np.ndarray:
    A = np.asarray(x, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] == 0:
        raise DimensionError(f"{name} must be at least 1x1")
    return A


def as_stack(X, *more) -> np.ndarray:
    """One or more matrices of one size, validated by ``as_matrix``, as a stack.

    The stack has shape (1 + len(more), n, n); functions with a
    ``(X, *more)`` form run it as lanes of one batch.
    """
    return _stack(as_matrix, (X, *more))


def _stack(coerce, mats) -> np.ndarray:
    mats = [coerce(M, f"matrix {k}" if len(mats) > 1 else "matrix") for k, M in enumerate(mats)]
    n = mats[0].shape[0]
    for k, M in enumerate(mats):
        if M.shape != mats[0].shape:
            raise DimensionError(f"matrix {k} has dimension {M.shape[0]}, expected {n}")
    return np.array(mats)


def as_scaled_stack(X, *more) -> tuple[np.ndarray, dict[int, int]]:
    """``as_stack(X, *more)`` with each matrix far from unit size scaled, and {k: e} of those.

    A nonzero matrix k whose largest real or imaginary part t lies
    outside [2^-256, 2^256] is replaced by 2^-e X_k, e the exponent of t,
    so its largest part lies in [1/2, 1); the scaling is exact in every
    entry whose parts stay normal.  One reduction per matrix gives this
    test and the finiteness test of ``as_matrix``: t is finite exactly
    when every entry is.
    """
    Xs = _stack(_square, (X, *more))
    top = np.maximum.reduce(np.abs(Xs.view(np.float64)), axis=(-2, -1)).tolist()
    far = {}
    for k, t in enumerate(top):
        if not math.isfinite(t):
            raise DomainError(f"{f'matrix {k}' if more else 'matrix'} contains non-finite entries")
        if t > _SAFE_HI or 0.0 < t < 1.0 / _SAFE_HI:
            far[k] = math.frexp(t)[1]
            Xs[k] = np.ldexp(Xs[k].view(np.float64), -far[k]).view(np.complex128)
    return Xs, far


def frobenius(X: np.ndarray) -> float:
    return float(np.linalg.norm(X))


def is_hermitian(H: np.ndarray) -> bool:
    """True iff ||H - H*||_F <= HERMITIAN_RTOL * ||H||_F.

    Both norms are taken on H scaled as ``as_scaled_stack`` scales it, by
    a power of two that the test does not change, so that neither
    underflows to 0 nor overflows to inf.
    """
    H = as_scaled_stack(H)[0][0]
    return frobenius(H - H.conj().T) <= HERMITIAN_RTOL * frobenius(H)


def _check_hermitian(H: np.ndarray, name: str) -> np.ndarray:
    if not is_hermitian(H):
        # Nonzero, since H is not Hermitian; scaled as is_hermitian scales it.
        Hs = as_scaled_stack(H)[0][0]
        raise DomainError(
            f"{name} is not Hermitian: relative asymmetry ||{name} - {name}*||_F / ||{name}||_F = "
            f"{frobenius(Hs - Hs.conj().T) / frobenius(Hs):.3e} exceeds {HERMITIAN_RTOL:g}"
        )
    return (H + H.conj().T) / 2


def adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return M.conj().swapaxes(-1, -2)


def cartesian_parts(Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts (re, im) with X = re + 1j*im of each matrix of a stack.

    Elementwise, so each matrix gets the bits ``cartesian_decompose``
    gives it alone.
    """
    Xh = adjoint(Xs)
    return (Xs + Xh) / 2, (Xs - Xh) / 2j


def cartesian_decompose(X) -> tuple[np.ndarray, np.ndarray]:
    """Split X into Hermitian parts (re, im) with X = re + 1j*im."""
    return cartesian_parts(as_matrix(X))


def hadamard(X, Y) -> np.ndarray:
    """Entrywise product of two equally sized matrices."""
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise DimensionError(f"shape mismatch: {X.shape} vs {Y.shape}")
    return X * Y


@dataclass(frozen=True, eq=False)
class HermEigResult:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascend; ``eigenvectors`` holds orthonormal columns so
    that H @ V == V @ diag(eigenvalues) up to round-off.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(H) -> HermEigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized before decomposition; asymmetry beyond
    1e-12 * ||H||_F is rejected.  Output is deterministic for identical
    input bits.
    """
    H = as_matrix(H, "H")
    Hs = _check_hermitian(H, "H")
    w, V = np.linalg.eigh(Hs)
    return HermEigResult(eigenvalues=w, eigenvectors=V)


def singular_values(X) -> np.ndarray:
    """Singular values of X in descending order.

    A backward-stable SVD: each computed value is within a small multiple
    of n * eps * sigma_1 of the exact one (Golub and Van Loan, Matrix
    Computations, section 8.6), where squaring into X*X would square the
    conditioning of the small ones.
    """
    return np.linalg.svd(as_matrix(X), compute_uv=False)


def block2x2(A, B, C, D) -> np.ndarray:
    """Assemble the 2n x 2n block matrix [[A, B], [C, D]]."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    C = as_matrix(C, "C")
    D = as_matrix(D, "D")
    if not (A.shape == B.shape == C.shape == D.shape):
        raise DimensionError(
            f"blocks must share one shape, got {A.shape}, {B.shape}, {C.shape}, {D.shape}"
        )
    return np.block([[A, B], [C, D]])


def pd_certificate(H: np.ndarray, extra=0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certify each Hermitian matrix of a stack positive definite: (passes, S, L).

    S holds d_i d_j with d = diag(H)^{-1/2} (d_i = 1 where H_ii <= 0, and
    inf where d_i d_j overflows: see below), and L is the Cholesky factor
    of fl(S H) - c I, c = 2 g n + extra
    (``extra`` per lane, or one for all), with u = 2^-53, gamma_k = k u /
    (1 - k u) and g = sqrt(2) gamma_{2n+1}.  A lane passes when that
    factorization runs to completion with a finite factor; then
    lambda_min(D H D) > (1 - gamma_4) extra >= 0 for D = diag(d) as
    computed, so H is positive definite.  L is not finite where a lane fails.

    The proof holds for a complex Hermitian H in IEEE double arithmetic,
    whatever order of real operations the factorization takes (blocked or
    recursive LAPACK, reciprocal scaling, fused multiply-adds); it follows
    Demmel (LAPACK Working Note 14, 1989) and Rump ("Verification of
    positive definiteness", BIT 46, 2006), who state it for real matrices.
    Let A = fl(S H), A~ = fl(A - c I) and T = tr(L L*).
    - Each real part of an entry of L L* - A~ is a sum of at most 2n - 1
      products and the entry, scaled by a rounded reciprocal: 2n + 1
      roundings, so it is within gamma_{2n+1} of the sum of its terms'
      moduli; per term |ac| + |bd| and |ad| + |bc| have squares summing
      to at most 2 |a + ib|^2 |c + id|^2, so |L L* - A~| <= g |L||L*|.
    - || |L||L*| ||_2 <= || L ||_F^2 = T, and T <= tr(A~) + g T gives
      T <= tr(A~) / (1 - g).  L is nonsingular, so lambda_min(A~) > -g T.
    - A~ differs from A - c I by u |A_ii - c| on the diagonal, and A from
      D H D by gamma_3 |A| entrywise (two roundings of real factors),
      where |A| <= (1 + g) |L||L*| + c I.
    So lambda_min(D H D) > (1 - gamma_4) c - (g + gamma_3 (1 + g)) T - u
    max A_ii.  With A_ii within gamma_6 of 1, T <= n (1 + gamma_7) / (1 -
    g); since g >= sqrt(2) gamma_3 > 4u, the term 2 g n clears (g + 3u) n
    + u with a margin of at least 0.24 u n, which holds the second-order
    terms and the underflow of any operation (2^-1074 absolute per real
    part) for n well below 10^6.  A nonpositive diagonal entry of H
    fails: its pivot is at most H_ii - c <= 0.

    A lane with a subnormal diagonal entry has some d_i d_j past the
    largest double, so its S holds inf there; that lane is scaled as
    (d_i H_ij) d_j instead, which is finite when H is positive definite
    (|H_ij| <= sqrt(H_ii H_jj)) and has as many roundings as fl(S H), so
    the proof holds for it too.  Every other lane is fl(S H).

    numpy's stacked cholesky raises for the whole stack when one lane
    fails; that stack is then redone by halves (_cholesky_halves), so
    every lane keeps the bits of a call with its matrix alone.
    """
    n = H.shape[-1]
    d = _scaling(H)
    gamma = (2 * n + 1) * 2.0**-53 / (1.0 - (2 * n + 1) * 2.0**-53)
    if np.maximum.reduce(d, axis=None, initial=0.0) < _D_OVERFLOW:
        S = d[..., :, None] * d[..., None, :]
        shifted = (S * H).reshape(-1, n * n)
    else:
        S, shifted = _subnormal_scaled(H, d)
    # The shift is subtracted on the diagonal alone, in place: off it,
    # x - 0 would be x.
    shifted[:, :: n + 1] -= np.asarray(2.0 * math.sqrt(2.0) * gamma * n + extra).reshape(-1, 1)
    flat = shifted.reshape(-1, n, n)
    try:
        L = np.linalg.cholesky(flat)
    except np.linalg.LinAlgError:
        L = np.full_like(flat, np.nan)
        _cholesky_halves(flat, L, 0, len(flat))
    passes = np.logical_and.reduce(np.isfinite(L.view(np.float64)), (-2, -1))
    return passes.reshape(H.shape[:-2]), S, L.reshape(H.shape)


# d_i d_j stays finite while every d_i is below 2^512, and only a diagonal
# entry below 2^-1024, a subnormal, puts its d_i there.
_D_OVERFLOW = 2.0**512


def _scaling(H: np.ndarray) -> np.ndarray:
    """pd_certificate's d = diag(H)^{-1/2} of each lane, 1 where H_ii <= 0."""
    a = H.diagonal(axis1=-2, axis2=-1).real
    return 1.0 / np.sqrt(np.where(a > 0.0, a, 1.0))


def unit_scaled(S: np.ndarray, H: np.ndarray, M: np.ndarray) -> np.ndarray:
    """D M D for each lane, D the scaling ``pd_certificate(H)`` returned as S.

    That is fl(S M) while S is finite.  A lane whose S holds inf, where H
    has a subnormal diagonal entry, is (d_i M_ij) d_j, as pd_certificate
    scales H itself, so a matrix beside H (its Cartesian partner, or H
    for a message) is scaled without forming d_i d_j.
    """
    if np.maximum.reduce(S, axis=None, initial=0.0) < math.inf:
        return S * M
    return _subnormal_scaled(M, _scaling(H))[1].reshape(M.shape)


def _subnormal_scaled(H: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pd_certificate's S, inf where d_i d_j overflows, and its D H D as rows of n^2 entries.

    A lane whose S is finite is fl(S H), as in pd_certificate; a lane
    with an overflowing product is (d_i H_ij) d_j.  Neither overflow
    warns: the inf in S is expected, and a product past the largest
    double in D H D (with the NaN a complex product makes of it) makes
    the lane's Cholesky fail.
    """
    n = H.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        S = d[..., :, None] * d[..., None, :]
        near = np.isfinite(S).all(axis=(-2, -1)).reshape(-1)
        flat, Sf, df = H.reshape(-1, n, n), S.reshape(-1, n, n), d.reshape(-1, n)
        shifted = np.empty_like(flat)
        shifted[near] = Sf[near] * flat[near]
        shifted[~near] = (df[~near, :, None] * flat[~near]) * df[~near, None, :]
    return S, shifted.reshape(-1, n * n)


def _cholesky_halves(flat: np.ndarray, L: np.ndarray, lo: int, hi: int) -> None:
    """Cholesky factors, into L, of the lanes lo:hi of a stack whose factorization raised.

    Each half is factored as one stack, and a half that raises is split
    again, down to single lanes; a lane that fails alone stays NaN in L.
    When the first half passes, the second holds the failure, so a second
    half of one lane is not redone.  One failing lane in a stack of 2^k
    costs 2k more calls, each lane with the bits of a call of its own.
    """
    if hi - lo < 2:
        return
    mid = (lo + hi) // 2
    for start, stop in ((lo, mid), (mid, hi)):
        if start == mid and stop - start == 1 and np.isfinite(L[lo:mid]).all():
            break
        try:
            L[start:stop] = np.linalg.cholesky(flat[start:stop])
        except np.linalg.LinAlgError:
            _cholesky_halves(flat, L, start, stop)


def is_psd(H, tol: float = 0.0) -> bool:
    """True iff lambda_min(H) >= -tol * ||H||_F for Hermitian H.

    The test is taken on H scaled as ``as_scaled_stack`` scales it, by a
    power of two that does not change it, so it is relative at every scale.
    """
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    H = as_scaled_stack(as_matrix(H, "H"))[0][0]
    Hs = _check_hermitian(H, "H")
    lam_min = float(np.linalg.eigvalsh(Hs)[0])
    return lam_min >= -tol * frobenius(Hs)


# --- matrix file format -------------------------------------------------
#
# JSON object {"n": int, "entries": [[re, im], ...]} row-major, length n*n.
# Python's json round-trips finite doubles exactly (shortest repr).


def matrix_to_obj(X) -> dict:
    X = as_matrix(X)
    n = X.shape[0]
    flat = X.ravel(order="C")
    return {"n": n, "entries": [[float(z.real), float(z.imag)] for z in flat]}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix object must have keys 'n' and 'entries'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValueError(f"'entries' must be a list, got {entries!r}")
    if len(entries) != n * n:
        raise ValueError(f"'entries' must have length {n * n}, got {len(entries)}")
    flat = np.empty(n * n, dtype=np.complex128)
    for k, pair in enumerate(entries):
        try:
            re, im = pair
            # complex() takes JSON true/false as 1/0.
            if isinstance(re, bool) or isinstance(im, bool):
                raise TypeError
            flat[k] = complex(re, im)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"entry {k} must be a pair [re, im] of numbers, got {pair!r}") from None
    return as_matrix(flat.reshape(n, n))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_obj(json.load(fh))


def write_matrix(path, X) -> None:
    # Serialised before the file is opened, so a matrix that fails
    # validation leaves an existing file as it was.
    text = json.dumps(matrix_to_obj(X)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
