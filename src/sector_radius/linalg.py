"""Dense complex matrix kernels shared by every other module.

Matrices are plain numpy complex128 arrays.  ``as_matrix`` is the single
validation gate (square shape, finite entries); every public operation
routes its inputs through it.  All functions are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "DomainError",
    "HermEigResult",
    "as_matrix",
    "frobenius",
    "is_hermitian",
    "cartesian_decompose",
    "hadamard",
    "herm_eig",
    "singular_values",
    "block2x2",
    "is_psd",
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


class DimensionError(ValueError):
    """Input has the wrong shape."""


class DomainError(ValueError):
    """Input violates a mathematical precondition."""


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    A = np.asarray(x, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] == 0:
        raise DimensionError(f"{name} must be at least 1x1")
    if not np.isfinite(A).all():
        raise DomainError(f"{name} contains non-finite entries")
    return A


def frobenius(X: np.ndarray) -> float:
    return float(np.linalg.norm(X))


def is_hermitian(H: np.ndarray) -> bool:
    """True iff ||H - H*||_F <= HERMITIAN_RTOL * ||H||_F."""
    return frobenius(H - H.conj().T) <= HERMITIAN_RTOL * frobenius(H)


def _check_hermitian(H: np.ndarray, name: str) -> np.ndarray:
    if not is_hermitian(H):
        raise DomainError(
            f"{name} is not Hermitian: asymmetry {frobenius(H - H.conj().T):.3e} exceeds "
            f"{HERMITIAN_RTOL:g} * ||{name}||_F"
        )
    return (H + H.conj().T) / 2


def cartesian_decompose(X) -> tuple[np.ndarray, np.ndarray]:
    """Split X into Hermitian parts (re, im) with X = re + 1j*im."""
    X = as_matrix(X)
    Xh = X.conj().T
    return (X + Xh) / 2, (X - Xh) / 2j


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


def is_psd(H, tol: float = 0.0) -> bool:
    """True iff lambda_min(H) >= -tol * max(1, ||H||_F) for Hermitian H."""
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    H = as_matrix(H, "H")
    Hs = _check_hermitian(H, "H")
    lam_min = float(np.linalg.eigvalsh(Hs)[0])
    return lam_min >= -tol * max(1.0, frobenius(Hs))


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
            flat[k] = complex(re, im)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"entry {k} must be a pair [re, im] of numbers, got {pair!r}") from None
    return as_matrix(flat.reshape(n, n))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_obj(json.load(fh))


def write_matrix(path, X) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_obj(X), fh)
        fh.write("\n")
