"""Exact tests of Frobenius norms and radii of float matrices, in rational arithmetic.

Every double is a rational, so the entries of a complex128 matrix M, its
Cartesian parts A = Re M and B = Im M, and the sums of their products are
exact ``fractions.Fraction`` values; no eigensolver is involved.  With
a = ||A||_F^2, b = ||B||_F^2 and c = <A, B> = Re tr(A B), the Frobenius
radius is

    w_F(M)^2 = sup_theta ||Re(e^{i theta} M)||_F^2 = (a + b)/2 + sqrt(((a - b)/2)^2 + c^2)

(Abu-Omar and Kittaneh, Linear Algebra Appl. 569, 2019), and an end v is
compared with it by squaring twice.  ||M||_F^2 is a sum of squares.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _entries(M: np.ndarray) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """The real and imaginary parts of M's entries, exactly."""
    M = np.asarray(M, dtype=np.complex128)
    return [[Fraction(v) for v in row] for row in M.real.tolist()], [[Fraction(v) for v in row] for row in M.imag.tolist()]


def _sign_above_root(v: Fraction, q: Fraction) -> int:
    """The sign of v - sqrt(q) for q >= 0."""
    if v < 0:
        return -1
    return (v * v > q) - (v * v < q)


def fro_squared(M: np.ndarray) -> Fraction:
    """||M||_F^2 exactly."""
    x, y = _entries(M)
    return sum((v * v for row in x + y for v in row), Fraction(0))


def omega_fro_parts(M: np.ndarray) -> tuple[Fraction, Fraction]:
    """(s, t) with w_F(M)^2 = s + sqrt(t) exactly: s = (a + b)/2, t = ((a - b)/2)^2 + c^2."""
    x, y = _entries(M)
    n = len(x)
    a = b = c = Fraction(0)
    for i in range(n):
        for j in range(n):
            # A_ij = (M_ij + conj(M_ji))/2 and B_ij = (M_ij - conj(M_ji))/2i.
            re_a, im_a = (x[i][j] + x[j][i]) / 2, (y[i][j] - y[j][i]) / 2
            re_b, im_b = (y[i][j] + y[j][i]) / 2, (x[j][i] - x[i][j]) / 2
            a += re_a * re_a + im_a * im_a
            b += re_b * re_b + im_b * im_b
            c += re_a * re_b + im_a * im_b
    half = (a - b) / 2
    return (a + b) / 2, half * half + c * c


def compare_fro(v: float, M: np.ndarray) -> int:
    """The sign of v - ||M||_F, exactly."""
    return _sign_above_root(Fraction(v), fro_squared(M))


def compare_omega_fro(v: float, M: np.ndarray) -> int:
    """The sign of v - w_F(M), exactly: v^2 - s is compared with sqrt(t) (omega_fro_parts)."""
    v = Fraction(v)
    if v < 0:
        return -1
    s, t = omega_fro_parts(M)
    return _sign_above_root(v * v - s, t)
