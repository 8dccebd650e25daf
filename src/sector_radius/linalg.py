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
    "scaled_lambda_min",
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


def as_scaled_stack(X, *more) -> tuple[np.ndarray, dict[int, int]]:
    """X, *more as one stack, each matrix far from unit size scaled, and {k: e} of those.

    The matrices must be square, of one size, with finite entries.  A
    nonzero matrix k whose largest real or imaginary part t lies
    outside [2^-256, 2^256] is replaced by 2^-e X_k, e the exponent of t,
    so its largest part lies in [1/2, 1); the scaling is exact in every
    entry whose parts stay normal.  One reduction over the stack gives
    this test and the finiteness test of ``as_matrix``: t is finite
    exactly when every entry is.

    The inputs are never written to.  A single aligned C-contiguous
    complex128 matrix is stacked as a view of the caller's data, any
    other input as a copy, and the stack is copied before a far matrix is
    scaled.  The names of the error messages are formatted only when one
    is raised.
    """
    try:
        Xs = np.array((X, *more), dtype=np.complex128) if more else np.ascontiguousarray(X, dtype=np.complex128)[None]
    except (TypeError, ValueError):
        Xs = None
    if Xs is None or Xs.ndim != 3 or Xs.shape[1] != Xs.shape[2] or not Xs.shape[1]:
        Xs = _checked_stack((X, *more))
    elif not Xs.flags.aligned:
        # A copy is aligned, so BLAS takes the products and dots of every
        # stack alike.
        Xs = Xs.copy()
    top = np.maximum.reduce(np.abs(Xs.view(np.float64)), axis=(-2, -1)).tolist()
    far = {}
    for k, t in enumerate(top):
        if not math.isfinite(t):
            raise DomainError(f"{f'matrix {k}' if more else 'matrix'} contains non-finite entries")
        if t > _SAFE_HI or 0.0 < t < 1.0 / _SAFE_HI:
            far[k] = math.frexp(t)[1]
    if far:
        Xs = Xs.copy()
        for k, e in far.items():
            Xs[k] = np.ldexp(Xs[k].view(np.float64), -e).view(np.complex128)
    return Xs, far


def _checked_stack(mats: tuple) -> np.ndarray:
    """The stack of ``mats`` by way of _square, raising the error that names the first matrix at fault.

    Every matrix is checked square before any two are compared; the
    stack is rebuilt only if none is at fault.
    """
    squares = [_square(M, f"matrix {k}" if len(mats) > 1 else "matrix") for k, M in enumerate(mats)]
    for k, M in enumerate(squares):
        if M.shape != squares[0].shape:
            raise DimensionError(f"matrix {k} has dimension {M.shape[0]}, expected {squares[0].shape[0]}")
    return np.array(squares)


def frobenius(M: np.ndarray) -> float:
    """||M||_F with the bits of np.linalg.norm(M), from the same two dot products without its dispatch."""
    x = M.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


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
    gives it alone.  Each part is formed on a fresh buffer and halved in
    place, by the same ufuncs as (X + X*)/2 and (X - X*)/2j.
    """
    Xh = adjoint(Xs)
    re = np.add(Xs, Xh)
    re /= 2
    im = np.subtract(Xs, Xh)
    im /= 2j
    return re, im


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
    """Certify each Hermitian matrix of a stack positive definite: (passes, d, L).

    d = diag(H)^{-1/2} per lane (d_i = 1 where H_ii <= 0), and L is the
    Cholesky factor of fl(D H D) - c I, D = diag(d), formed as
    ``unit_scaled`` forms it, c = 2 g n + extra (``extra`` per lane, or
    one for all), with u = 2^-53, gamma_k = k u / (1 - k u) and g =
    sqrt(2) gamma_{2n+1}.  A lane passes when that factorization runs to
    completion with a finite factor; then lambda_min(D H D) > (1 -
    gamma_4) extra >= 0 for D as computed, so H is positive definite.  L
    is not finite where a lane fails.

    The proof holds for a complex Hermitian H in IEEE double arithmetic,
    whatever order of real operations the factorization takes (blocked or
    recursive LAPACK, reciprocal scaling, fused multiply-adds); it follows
    Demmel (LAPACK Working Note 14, 1989) and Rump ("Verification of
    positive definiteness", BIT 46, 2006), who state it for real matrices.
    Let A = fl(D H D), A~ = fl(A - c I) and T = tr(L L*).
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

    numpy's stacked cholesky raises for the whole stack when one lane
    fails; each lane of that stack is then factored alone, so every lane
    keeps the bits of a call with its matrix alone.
    """
    n = H.shape[-1]
    a = H.diagonal(axis1=-2, axis2=-1).real
    d = 1.0 / np.sqrt(np.where(a > 0.0, a, 1.0))
    gamma = (2 * n + 1) * 2.0**-53 / (1.0 - (2 * n + 1) * 2.0**-53)
    shifted = unit_scaled(d, H).reshape(-1, n * n)
    # The shift is subtracted on the diagonal alone, in place: off it,
    # x - 0 would be x.
    shifted[:, :: n + 1] -= np.asarray(2.0 * math.sqrt(2.0) * gamma * n + extra).reshape(-1, 1)
    flat = shifted.reshape(-1, n, n)
    try:
        L = np.linalg.cholesky(flat)
    except np.linalg.LinAlgError:
        # A lane that fails stays NaN, and a lone lane has failed already.
        L = np.full_like(flat, np.nan)
        if len(flat) > 1:
            for k, M in enumerate(flat):
                try:
                    L[k] = np.linalg.cholesky(M)
                except np.linalg.LinAlgError:
                    pass
    passes = np.logical_and.reduce(np.isfinite(L.view(np.float64)), (-2, -1))
    return passes.reshape(H.shape[:-2]), d, L.reshape(H.shape)


def unit_scaled(d: np.ndarray, M: np.ndarray) -> np.ndarray:
    """D M D for each lane, D = diag(d) with d the scaling ``pd_certificate`` returned.

    Each entry is fl(fl(d_i M_ij) d_j), so it stays finite wherever D M D
    does, even where d_i d_j would overflow (a subnormal diagonal entry).
    Neither overflow nor the NaN a complex product makes of it warns:
    pd_certificate fails a lane whose D H D is past the largest double.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (d[..., :, None] * M) * d[..., None, :]


def scaled_lambda_min(d: np.ndarray, H: np.ndarray) -> np.ndarray:
    """lambda_min(D H D) of each lane, D H D formed by ``unit_scaled``, or -inf where it is not finite.

    Only a failure's message reads this.  -inf stands for a value below
    about 1 - 2^512: each d_j is at least 2^-512, so an entry x of D H D
    that overflowed has |x| >= 2^512, and the principal 2 x 2 minor of
    D H D through x, whose diagonal entries are at most about 1, gives
    lambda_min(D H D) <= 1 - |x| up to rounding.
    """
    M = unit_scaled(d, H)
    finite = np.isfinite(M).all(axis=(-2, -1))
    lam = np.full(finite.shape, -np.inf)
    lam[finite] = np.linalg.eigvalsh(M[finite])[..., 0]
    return lam


def is_psd(H, tol: float = 0.0) -> bool:
    """True iff lambda_min(H) >= -tol * ||H||_F for Hermitian H.

    The test is taken on H scaled as ``as_scaled_stack`` scales it, by a
    power of two that does not change it, so it is relative at every scale.
    """
    if not tol >= 0:
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
