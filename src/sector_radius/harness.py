"""Named, certified checks for the numerical radius inequality suite.

Every inequality the library verifies has a stable identifier.  A check
evaluates both sides as enclosing intervals: radius estimates contribute
[value, value + cert_error], norms enter as points padded by the SVD's
error model, diagonal maxima with a small relative pad, and sec/tan
factors are evaluated at the computed sector index inflated by a small
margin, and the inflated index is verified to bound the numerical range
before it is used.  The verdict is certified only when
the intervals separate.

Each identifier is one row of REGISTRY and is stated nowhere else: its
inputs, its hypothesis, and both sides written in a small vocabulary of
terms (see docs/inequalities.md).  InequalityId is built from the rows,
and suites draw each row's inputs from its hypothesis.  One evaluator
checks the hypothesis and computes every distinct term of a row once,
all of the row's radii in one omega_n call.

IDs whose statement involves the classical numerical radius always run
with the operator norm regardless of the requested norm; the remaining
IDs are parametric in any member of the shipped norm family.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce

import numpy as np

from .generator import GenConfig, mix_seed, random_accretive_dissipative, random_ginibre, random_pd, random_sectorial
from .linalg import (
    LAPACK_BACKWARD,
    DimensionError,
    as_matrix,
    cartesian_decompose,
    frobenius,
    hadamard,
    is_hermitian,
    is_psd,
)
from .norms import FROBENIUS, OPERATOR, TRACE, NormSpec, evaluate_norm, schatten
from .radius import DEFAULT_GRID, omega_n
from .report import CheckResult, IdSummary, Interval, SuiteReport
from .sectorial import (
    NotSectorialError,
    SectorInfo,
    accretive_gate,
    rotation_to_sector,
    sec_block,
    sector_index,
    tan_block,
)

__all__ = [
    "InequalityId",
    "CheckContext",
    "DEFAULT_CONTEXT",
    "DEFAULT_DIMS",
    "DEFAULT_NORMS",
    "check_inequality",
    "run_suite",
    "tightness_scan",
    "explain",
    "all_ids",
]


@dataclass(frozen=True)
class CheckContext:
    """Shared numerical settings for a batch of checks.

    ``grid`` is the number of uniform start cells of every radius
    computation; Newton polishing and certification down to
    ``refine_tol`` carry the accuracy, so a coarse grid only seeds them.
    ``m_fold`` is the number of inputs suites generate for an m-fold
    identifier.
    """

    grid: int = DEFAULT_GRID
    refine_tol: float = 1e-10
    m_fold: int = 3


DEFAULT_CONTEXT = CheckContext()
DEFAULT_DIMS = (2, 3, 4, 5, 6)
DEFAULT_NORMS = (OPERATOR, TRACE, FROBENIUS, schatten(3))

_NORM_PAD = 1e-12
_DIAG_PAD = 1e-15
_PSD_TOL = 1e-9
# Added to every computed sector index before a sec or tan factor is
# taken, covering the index's rounding error (see _verified).
_ALPHA_INFLATION = 1e-8
_EPS = float(np.finfo(np.float64).eps)


class Inapplicable(Exception):
    """A matrix-property precondition of the check does not hold."""


# --- hypotheses -------------------------------------------------------------


def _norm_iv(spec: NormSpec, X: np.ndarray) -> Interval:
    """N(X) from one SVD, padded by the SVD's error model.

    Each computed singular value is within LAPACK_BACKWARD * n * eps * sigma_1
    of the exact one (Golub and Van Loan, Matrix Computations, section
    8.6), so a Schatten-p norm is within n^(1/p) times that; sigma_1 is
    at most N(X).
    """
    value = evaluate_norm(spec, X)
    n = X.shape[0]
    pad = n ** (1.0 / spec.schatten_p) * LAPACK_BACKWARD * n * _EPS * value
    return Interval.point(value, abs_=pad)


def _class_info(X: np.ndarray, which: str) -> SectorInfo:
    try:
        info = rotation_to_sector(X)
    except NotSectorialError as exc:
        raise Inapplicable(f"{which}: input is not sectorial: {exc}") from None
    return _verified(info, X)


def _accretive_info(X: np.ndarray, which: str) -> SectorInfo:
    try:
        info = sector_index(X)
    except (NotSectorialError, ValueError) as exc:
        raise Inapplicable(f"{which}: input is not accretive sectorial: {exc}") from None
    return _verified(info, X)


def _verified(info: SectorInfo, X: np.ndarray) -> SectorInfo:
    """``info`` with its index inflated until W(zX) provably fits the sector.

    For a < pi/2, W(Y) lies in the closed sector of half-width a exactly
    when Im(e^{-ia} Y) <= 0 and Im(e^{ia} Y) >= 0, that is when both
    +-cos(a) Im Y - sin(a) Re Y are negative semidefinite.  Their computed
    top eigenvalues must clear the eigensolver's backward error
    n * eps * ||H||; the inflation starts at _ALPHA_INFLATION and
    doubles until they do.
    """
    re, im = cartesian_decompose(info.rotation_z * X)
    slack = X.shape[0] * _EPS * (frobenius(re) + frobenius(im))
    inflation = _ALPHA_INFLATION
    while True:
        a = info.index_alpha + inflation
        if a >= math.pi / 2:
            raise Inapplicable(f"inflated sector index {a:.12f} reaches pi/2")
        c, s = math.cos(a), math.sin(a)
        top = np.linalg.eigvalsh(np.stack([c * im - s * re, -c * im - s * re]))[:, -1]
        if top.max() <= -slack:
            return replace(info, index_alpha=a)
        inflation = max(2.0 * inflation, _EPS)


def _require_accretive_dissipative(X: np.ndarray, which: str) -> None:
    # Im X is Re(-iX), so both parts go through the accretivity gate at once.
    re, im = cartesian_decompose(X)
    passes, lam = accretive_gate(np.stack([re, im]), np.stack([im, -re]))
    if not passes.all():
        raise Inapplicable(
            f"{which} is not accretive-dissipative: lambda_min(D Re D) = {lam[0]:.3e}, "
            f"lambda_min(D' Im D') = {lam[1]:.3e} (unit-diagonal scalings D, D')"
        )


def _require_pd(X: np.ndarray, which: str) -> None:
    if not is_hermitian(X):
        raise Inapplicable(f"{which} is not Hermitian")
    lam = float(np.linalg.eigvalsh((X + X.conj().T) / 2)[0])
    if lam <= 1e-12 * frobenius(X):
        raise Inapplicable(f"{which} is not positive definite: lambda_min = {lam:.3e}")


class Hypothesis(Enum):
    """What an identifier assumes of its inputs."""

    SECTORIAL = "each input in a rotated sector class"
    ACCRETIVE = "each input accretive, no rotation"
    ACCRETIVE_DISSIPATIVE = "each input accretive-dissipative"
    PD_SECOND = "second input positive definite"
    ONE_HERMITIAN = "at least one input Hermitian"
    PSD_NOTE = "first input PSD; a violation is noted, not refused"


def _check_hypothesis(kind, mats, arity: int) -> tuple[list[SectorInfo], str]:
    """Sector data of each input and a note, once ``kind`` holds.

    Inputs are tested in order and the first violation raises
    Inapplicable, so its note is the one reported.  Only SECTORIAL and
    ACCRETIVE return sector data; PSD_NOTE returns a note instead of
    raising.
    """
    names = [("first input", "second input")[k] if arity else f"input {k}" for k in range(len(mats))]
    if kind is Hypothesis.SECTORIAL:
        return [_class_info(M, which) for M, which in zip(mats, names)], ""
    if kind is Hypothesis.ACCRETIVE:
        return [_accretive_info(M, which) for M, which in zip(mats, names)], ""
    if kind is Hypothesis.ACCRETIVE_DISSIPATIVE:
        for M, which in zip(mats, names):
            _require_accretive_dissipative(M, which)
    elif kind is Hypothesis.PD_SECOND:
        _require_pd(mats[1], "second input")
    elif kind is Hypothesis.ONE_HERMITIAN:
        if not any(is_hermitian(M) for M in mats):
            raise Inapplicable("neither input is Hermitian")
    elif kind is Hypothesis.PSD_NOTE:
        if not (is_hermitian(mats[0]) and is_psd(mats[0], 1e-10)):
            return [], "hypothesis violated: first factor is not PSD, bound not guaranteed"
    return [], ""


def _psd_comparison(block: np.ndarray) -> tuple[Interval, Interval, str]:
    lam_min = float(np.linalg.eigvalsh(block)[0])
    scale = max(1.0, frobenius(block))
    lhs = Interval.point(-lam_min, abs_=1e-12 * scale)
    rhs = Interval.point(_PSD_TOL * scale)
    return lhs, rhs, "PSD test: lhs is -lambda_min(block), rhs the tolerance"


# --- statement vocabulary ---------------------------------------------------
#
# A side of an inequality is a term, a tuple of sides multiplied as
# intervals strictly left to right, Scale(c, side) or Min(a, b).  Inside a
# tuple, Each(T) stands for T(0), ..., T(m - 1) when T is a term class and
# for m copies of T when T is a term.  A term names a matrix by input
# index, by PRODUCT (the inputs combined by the row's product), or as
# Re, Im or Rotated of one of those.

PRODUCT = "product"
MAX = "max"  # in Sec, Tan or OnePlusTan: the largest index over the inputs
_X, _Y = 0, 1


@dataclass(frozen=True)
class Re:
    of: object

    def matrix(self, ev):
        return cartesian_decompose(ev.matrix(self.of))[0]


@dataclass(frozen=True)
class Im:
    of: object

    def matrix(self, ev):
        return cartesian_decompose(ev.matrix(self.of))[1]


@dataclass(frozen=True)
class Rotated:
    """z X_k, z the witnessing rotation of input k's sector class."""

    of: int

    def matrix(self, ev):
        return ev.infos[self.of].rotation_z * ev.mats[self.of]


@dataclass(frozen=True)
class Omega:
    """w_N as [value, value + cert_error] from omega_n.

    The evaluator computes every Omega term of a row in one omega_n call
    (_Evaluator.radii) before either side is evaluated.
    """

    of: object


@dataclass(frozen=True)
class Norm:
    of: object

    def interval(self, ev):
        return _norm_iv(ev.spec, ev.matrix(self.of))


@dataclass(frozen=True)
class Sec:
    of: object  # input index or MAX

    def interval(self, ev):
        return Interval.point(1.0 / math.cos(ev.alpha(self.of)), rel=_NORM_PAD)


@dataclass(frozen=True)
class Tan:
    of: object

    def interval(self, ev):
        return Interval.point(math.tan(ev.alpha(self.of)), rel=_NORM_PAD)


@dataclass(frozen=True)
class OnePlusTan:
    of: object

    def interval(self, ev):
        return Interval.point(1.0 + math.tan(ev.alpha(self.of)), rel=_NORM_PAD)


@dataclass(frozen=True)
class DiagAbsMax:
    of: int

    def interval(self, ev):
        return Interval.point(float(np.max(np.abs(np.diag(ev.matrix(self.of))))), rel=_DIAG_PAD)


@dataclass(frozen=True)
class DiagReMax:
    of: int

    def interval(self, ev):
        return Interval.point(float(np.max(np.diag(ev.matrix(self.of)).real)), rel=_DIAG_PAD)


@dataclass(frozen=True)
class Const:
    """base^(per_input * m) for m inputs, a point padded by _NORM_PAD."""

    base: float
    per_input: float

    def interval(self, ev):
        return Interval.point(self.base ** (self.per_input * len(ev.mats)), rel=_NORM_PAD)


@dataclass(frozen=True)
class Scale:
    c: float
    of: object


@dataclass(frozen=True)
class Min:
    a: object
    b: object


@dataclass(frozen=True)
class Each:
    term: object


class _Evaluator:
    """The terms of one check, each computed at most once."""

    def __init__(self, mats, infos, product, spec: NormSpec, ctx: CheckContext):
        self.mats = mats
        self.infos = infos
        self.product = product
        self.spec = spec
        self.ctx = ctx
        self._memo = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def matrix(self, of) -> np.ndarray:
        if isinstance(of, int):
            return self.mats[of]
        if of == PRODUCT:
            return self._once(of, lambda: reduce(self.product, self.mats))
        return self._once(of, lambda: of.matrix(self))

    def alpha(self, of) -> float:
        if of == MAX:
            return max(info.index_alpha for info in self.infos)
        return self.infos[of].index_alpha

    def factors(self, expr: tuple):
        """The factors of a tuple side, with each Each expanded over the inputs."""
        for f in expr:
            if not isinstance(f, Each):
                yield f
            elif isinstance(f.term, type):
                yield from (f.term(k) for k in range(len(self.mats)))
            else:
                yield from (f.term for _ in self.mats)

    def terms(self, expr):
        """The terms of a side, in the order side() first uses them."""
        if isinstance(expr, tuple):
            for f in self.factors(expr):
                yield from self.terms(f)
        elif isinstance(expr, Scale):
            yield from self.terms(expr.of)
        elif isinstance(expr, Min):
            yield from self.terms(expr.a)
            yield from self.terms(expr.b)
        else:
            yield expr

    def radii(self, *sides) -> None:
        """Compute the distinct Omega terms of ``sides`` in one omega_n call.

        The matrices run as lanes of one batch in first-use order, and
        each interval is memoised for side().
        """
        omegas = list(dict.fromkeys(t for s in sides for t in self.terms(s) if isinstance(t, Omega)))
        if not omegas:
            return
        mats = [self.matrix(t.of) for t in omegas]
        ests = omega_n(self.spec, *mats, grid=self.ctx.grid, refine_tol=self.ctx.refine_tol)
        for term, est in zip(omegas, ests if len(omegas) > 1 else (ests,)):
            self._memo[term] = Interval(est.value, est.value + est.cert_error)

    def side(self, expr) -> Interval:
        if isinstance(expr, tuple):
            return reduce(operator.mul, [self.side(f) for f in self.factors(expr)])
        if isinstance(expr, Scale):
            return self.side(expr.of).scale(expr.c)
        if isinstance(expr, Min):
            return Interval.min_of(self.side(expr.a), self.side(expr.b))
        return self._once(expr, lambda: expr.interval(self))


# --- registry -------------------------------------------------------------


@dataclass(frozen=True)
class IdInfo:
    """One identifier as data: its inputs, its hypothesis and both sides.

    ``requires`` is checked before anything else, and suites draw inputs
    that satisfy it (generate_inputs); with ``common_index`` they draw one
    sector index for all inputs, as rows that take the MAX index state.
    ``product`` combines the inputs into PRODUCT (np.matmul, hadamard or
    None).  A row with ``block`` is a positivity certificate: block(zX, a)
    is tested for PSD in place of lhs <= rhs.
    """

    id: str
    arity: int  # 0 means m-fold (any arity >= 2; suites use CheckContext.m_fold)
    classical: bool
    statement: str
    hypotheses: str
    requires: Hypothesis | None = None
    product: object = None
    lhs: object = None
    rhs: object = None
    block: object = None
    common_index: bool = False


_H = Hypothesis
_DIAG_MIN = Min((DiagAbsMax(_X), Omega(_Y)), (DiagAbsMax(_Y), Omega(_X)))
_ROWS = (
    IdInfo("A_lower", 1, True,
           "0.5 * ||X|| <= w(X)",
           "any square X; operator norm",
           lhs=Scale(0.5, Norm(_X)), rhs=Omega(_X)),
    IdInfo("A_upper", 1, True,
           "w(X) <= ||X||",
           "any square X; operator norm",
           lhs=Omega(_X), rhs=Norm(_X)),
    IdInfo("B_prod4", 2, True,
           "w(X Y) <= 4 w(X) w(Y)",
           "any square X, Y; the constant 4 is sharp",
           product=np.matmul, lhs=Omega(PRODUCT), rhs=Scale(4.0, (Omega(_X), Omega(_Y)))),
    IdInfo("C_had2", 2, True,
           "w(X o Y) <= 2 w(X) w(Y)",
           "any square X, Y; the constant 2 is sharp",
           product=hadamard, lhs=Omega(PRODUCT), rhs=Scale(2.0, (Omega(_X), Omega(_Y)))),
    IdInfo("I_diag_psd", 2, True,
           "w(A o X) <= (max_j a_jj) w(X)",
           "A positive semidefinite (enforced by suite generation; the check "
           "still evaluates on other inputs and can certify failure)",
           _H.PSD_NOTE, hadamard, Omega(PRODUCT), (DiagReMax(_X), Omega(_Y))),
    IdInfo("II_prod_sec", 2, True,
           "w(X Y) <= sec(a1) sec(a2) w(X) w(Y)",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec), Each(Omega))),
    IdInfo("III_had_sec", 2, True,
           "w(X o Y) <= sec(a1) sec(a2) w(X) w(Y)",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), Each(Omega))),
    IdInfo("VI_had_diag_min", 2, True,
           "w(X o Y) <= sec(a1) sec(a2) min(max_j |x_jj| w(Y), max_j |y_jj| w(X))",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), _DIAG_MIN)),
    IdInfo("L1_norm_sec", 1, False,
           "N(zX) <= sec(a) N(Re(zX))",
           "z the witnessing rotation, a the class index of X",
           _H.SECTORIAL, lhs=Norm(Rotated(_X)), rhs=(Sec(_X), Norm(Re(Rotated(_X))))),
    IdInfo("L2_block_tan", 1, False,
           "[[tan(a) Re(zX), Im(zX)], [Im(zX), tan(a) Re(zX)]] >= 0",
           "z the witnessing rotation, a the class index of X",
           _H.SECTORIAL, block=tan_block),
    IdInfo("L3_block_sec", 1, False,
           "[[sec(a) Re(zX), zX], [(zX)*, sec(a) Re(zX)]] >= 0",
           "z the witnessing rotation, a the class index of X",
           _H.SECTORIAL, block=sec_block),
    IdInfo("P1_re_mono", 1, False,
           "w_N(Re X) <= w_N(X)",
           "any square X",
           lhs=Omega(Re(_X)), rhs=Omega(_X)),
    IdInfo("P2_im_tan", 1, False,
           "w_N(Im(zX)) <= tan(a) w_N(Re(zX))",
           "z the witnessing rotation, a the class index of X",
           _H.SECTORIAL, lhs=Omega(Im(Rotated(_X))), rhs=(Tan(_X), Omega(Re(Rotated(_X))))),
    IdInfo("P3_sec", 1, False,
           "w_N(zX) <= sec(a) w_N(Re(zX))",
           "z the witnessing rotation, a the class index of X",
           _H.SECTORIAL, lhs=Omega(Rotated(_X)), rhs=(Sec(_X), Omega(Re(Rotated(_X))))),
    IdInfo("SA_omega_le_N", 1, False,
           "w_N(X) <= N(X)",
           "any square X",
           lhs=Omega(_X), rhs=Norm(_X)),
    IdInfo("T1_prod_sec_N", 2, False,
           "w_N(X Y) <= sec(a1) sec(a2) w_N(X) w_N(Y)",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec), Each(Omega))),
    IdInfo("C_B2_sec2", 2, False,
           "w_N(X Y) <= sec(a)^2 w_N(X) w_N(Y)",
           "X, Y in a common rotated sector class of index a",
           _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec(MAX)), Each(Omega)),
           common_index=True),
    IdInfo("C_AD_prod2", 2, False,
           "w_N(X Y) <= 2 w_N(X) w_N(Y)",
           "X, Y accretive-dissipative",
           _H.ACCRETIVE_DISSIPATIVE, np.matmul, Omega(PRODUCT),
           Scale(2.0, (Omega(_X), Omega(_Y)))),
    IdInfo("C_mprod", 0, False,
           "w_N(X_1 ... X_m) <= (prod_j sec(a_j)) prod_j w_N(X_j)",
           "each X_j in a rotated sector class with index a_j",
           _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec), Each(Omega))),
    IdInfo("C_secm", 0, False,
           "w_N(X_1 ... X_m) <= sec(a)^m prod_j w_N(X_j)",
           "all X_j in a common rotated sector class of index a",
           _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec(MAX)), Each(Omega)),
           common_index=True),
    IdInfo("C_AD_m", 0, False,
           "w_N(X_1 ... X_m) <= 2^(m/2) prod_j w_N(X_j)",
           "each X_j accretive-dissipative",
           _H.ACCRETIVE_DISSIPATIVE, np.matmul, Omega(PRODUCT), (Const(2.0, 0.5), Each(Omega))),
    IdInfo("H2_hermitian_had", 2, False,
           "w_N(X o Y) <= w_N(X) w_N(Y)",
           "at least one of X, Y Hermitian",
           _H.ONE_HERMITIAN, hadamard, Omega(PRODUCT), (Omega(_X), Omega(_Y))),
    IdInfo("H3_had_sec_N", 2, False,
           "w_N(X o Y) <= sec(a1) sec(a2) w_N(X) w_N(Y)",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), Each(Omega))),
    IdInfo("C_C2_had", 2, False,
           "w_N(X o Y) <= sec(a)^2 w_N(X) w_N(Y)",
           "X, Y in a common rotated sector class of index a",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec(MAX)), Each(Omega)),
           common_index=True),
    IdInfo("T_had_m", 0, False,
           "w_N(X_1 o ... o X_m) <= (prod_j sec(a_j)) prod_j w_N(X_j)",
           "each X_j in a rotated sector class with index a_j",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), Each(Omega))),
    IdInfo("C_AD_had_m", 0, False,
           "w_N(X_1 o ... o X_m) <= 2^(m/2) prod_j w_N(X_j)",
           "each X_j accretive-dissipative",
           _H.ACCRETIVE_DISSIPATIVE, hadamard, Omega(PRODUCT), (Const(2.0, 0.5), Each(Omega))),
    IdInfo("L6_had_diag_norm", 2, False,
           "N(X o Y) <= (max_i y_ii) N(X)",
           "Y positive definite",
           _H.PD_SECOND, hadamard, Norm(PRODUCT), (DiagReMax(_Y), Norm(_X))),
    IdInfo("L7_had_diag_omega", 2, False,
           "w_N(X o Y) <= (max_i y_ii) w_N(X)",
           "Y positive definite",
           _H.PD_SECOND, hadamard, Omega(PRODUCT), (DiagReMax(_Y), Omega(_X))),
    IdInfo("T_diag_x", 2, False,
           "w_N(X o Y) <= sec(a1) sec(a2) (max_j |x_jj|) w_N(Y)",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), DiagAbsMax(_X), Omega(_Y))),
    IdInfo("T_diag_y", 2, False,
           "w_N(X o Y) <= sec(a1) sec(a2) (max_j |y_jj|) w_N(X)",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), DiagAbsMax(_Y), Omega(_X))),
    IdInfo("C_diag_min", 2, False,
           "w_N(X o Y) <= sec(a1) sec(a2) min(max_j |x_jj| w_N(Y), max_j |y_jj| w_N(X))",
           "X, Y in rotated sector classes with indices a1, a2",
           _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), _DIAG_MIN)),
    IdInfo("C_AD_diag_min2", 2, False,
           "w_N(X o Y) <= 2 min(max_j |x_jj| w_N(Y), max_j |y_jj| w_N(X))",
           "X, Y accretive-dissipative",
           _H.ACCRETIVE_DISSIPATIVE, hadamard, Omega(PRODUCT), Scale(2.0, _DIAG_MIN)),
    IdInfo("T_onetan_min", 2, False,
           "w_N(X o Y) <= min((1 + tan a1) w_N(Re X) w_N(Y), (1 + tan a2) w_N(X) w_N(Re Y))",
           "X, Y accretive with sector indices a1, a2 (ranges inside the "
           "sectors themselves, no rotation)",
           _H.ACCRETIVE, hadamard, Omega(PRODUCT),
           Min((OnePlusTan(_X), Omega(Re(_X)), Omega(_Y)), (OnePlusTan(_Y), Omega(_X), Omega(Re(_Y))))),
    IdInfo("C_onetan", 2, False,
           "w_N(X o Y) <= (1 + tan a) w_N(X) w_N(Y), a = max(a1, a2)",
           "X, Y accretive with sector indices a1, a2",
           _H.ACCRETIVE, hadamard, Omega(PRODUCT), (OnePlusTan(MAX), Omega(_X), Omega(_Y)),
           common_index=True),
)
InequalityId = Enum("InequalityId", [(row.id, row.id) for row in _ROWS], type=str, module=__name__)
REGISTRY: dict[InequalityId, IdInfo] = {InequalityId(row.id): row for row in _ROWS}


def all_ids() -> list[InequalityId]:
    return list(REGISTRY.keys())


def _evaluate(info: IdInfo, mats, spec: NormSpec, ctx: CheckContext) -> tuple[Interval, Interval, str]:
    infos, note = _check_hypothesis(info.requires, mats, info.arity)
    ev = _Evaluator(mats, infos, info.product, spec, ctx)
    if info.block is not None:
        return _psd_comparison(info.block(ev.matrix(Rotated(_X)), infos[_X].index_alpha))
    ev.radii(info.lhs, info.rhs)
    return ev.side(info.lhs), ev.side(info.rhs), note


def check_inequality(
    id: InequalityId | str,
    inputs,
    norm: NormSpec = OPERATOR,
    *,
    context: CheckContext = DEFAULT_CONTEXT,
    seed: int | None = None,
) -> CheckResult:
    """Evaluate one inequality on explicit inputs with certified intervals.

    Inputs whose matrix properties violate the identifier's hypotheses
    (except for I_diag_psd, which evaluates regardless so that necessity
    of its hypothesis can be demonstrated) yield verdict "inapplicable".
    Wrong arity or mismatched dimensions raise instead: those are caller
    errors, not data properties.
    """
    ineq = InequalityId(id)
    info = REGISTRY[ineq]
    mats = [as_matrix(m, f"input {k}") for k, m in enumerate(inputs)]
    if info.arity == 0:
        if len(mats) < 2:
            raise ValueError(f"{ineq.value} needs at least 2 inputs, got {len(mats)}")
    elif len(mats) != info.arity:
        raise ValueError(f"{ineq.value} needs exactly {info.arity} input(s), got {len(mats)}")
    n = mats[0].shape[0]
    for k, M in enumerate(mats[1:], start=1):
        if M.shape[0] != n:
            raise DimensionError(f"input {k} has dimension {M.shape[0]}, expected {n}")
    spec_eff = OPERATOR if info.classical else norm
    try:
        lhs, rhs, note = _evaluate(info, mats, spec_eff, context)
    except Inapplicable as exc:
        return CheckResult.inapplicable(ineq.value, str(exc), seed=seed, norm=spec_eff.label, dim=n)
    return CheckResult.from_comparison(
        ineq.value, lhs, rhs, seed=seed, norm=spec_eff.label, dim=n, note=note
    )


# --- input generation ------------------------------------------------------
#
# Suites draw each row's inputs from its hypothesis.  Input j comes from the
# generator seed mix_seed(seed, j + 1); a sector draw takes its index from
# tag 31 + j (tag 31 for every input of a common_index row) and its rotation
# phase from tag 41 + j.

_ALPHA_MAX = 1.4


def _uniform(seed: int, tag: int, lo: float, hi: float) -> float:
    rng = np.random.Generator(np.random.Philox(key=mix_seed(seed, tag)))
    return lo + (hi - lo) * float(rng.random())


def _plain(draw):
    """A draw that needs nothing but its generator config."""
    return lambda cfg, seed, index_tag, phase_tag: draw(cfg)


def _accretive(cfg: GenConfig, seed: int, index_tag: int, phase_tag: int) -> np.ndarray:
    return random_sectorial(cfg, _uniform(seed, index_tag, 0.0, _ALPHA_MAX))


def _rotated(cfg: GenConfig, seed: int, index_tag: int, phase_tag: int) -> np.ndarray:
    X = _accretive(cfg, seed, index_tag, phase_tag)
    return np.exp(1j * _uniform(seed, phase_tag, 0.0, 2.0 * math.pi)) * X


_GINIBRE = _plain(random_ginibre)
_PD = _plain(random_pd)
_HERMITIAN = _plain(lambda cfg: cartesian_decompose(random_ginibre(cfg))[0])
# The draw of each input position, or one draw for every input.
_DRAWS = {
    None: _GINIBRE,
    Hypothesis.PSD_NOTE: (_PD, _GINIBRE),
    Hypothesis.PD_SECOND: (_GINIBRE, _PD),
    Hypothesis.ONE_HERMITIAN: (_GINIBRE, _HERMITIAN),
    Hypothesis.SECTORIAL: _rotated,
    Hypothesis.ACCRETIVE: _accretive,
    Hypothesis.ACCRETIVE_DISSIPATIVE: _plain(random_accretive_dissipative),
}


def generate_inputs(info: IdInfo, n: int, seed: int, m_fold: int = 3) -> list[np.ndarray]:
    """Deterministic inputs for one trial of ``info``, drawn to satisfy its hypothesis."""
    draws = _DRAWS[info.requires]
    mats = []
    for j in range(info.arity or m_fold):
        draw = draws[j] if isinstance(draws, tuple) else draws
        index_tag = 31 if info.common_index else 31 + j
        mats.append(draw(GenConfig(n, mix_seed(seed, j + 1)), seed, index_tag, 41 + j))
    return mats


# --- suite runner -----------------------------------------------------------


def _normalize_ids(ids) -> list[InequalityId]:
    if ids == "all" or ids is None:
        return all_ids()
    wanted = {InequalityId(i) for i in ids}
    if not wanted:
        raise ValueError("empty id set")
    return [i for i in all_ids() if i in wanted]  # registry order, no duplicates


def _run_trials(tagged, trials: int, dims, norms, seed: int, context: CheckContext):
    """Seeded checks of each (id, seed tag) pair of ``tagged``, and a summary per id.

    Trial t of an id uses dimension dims[t mod len(dims)], norm
    norms[(t div len(dims)) mod len(norms)] and seed mix_seed(seed, tag, t),
    so every dimension/norm combination is exercised.
    """
    results = []
    for ineq, tag in tagged:
        info = REGISTRY[ineq]
        for t in range(trials):
            dim = dims[t % len(dims)]
            norm = norms[(t // len(dims)) % len(norms)]
            tseed = mix_seed(seed, tag, t)
            mats = generate_inputs(info, dim, tseed, context.m_fold)
            results.append(check_inequality(ineq, mats, norm, context=context, seed=tseed))
    per_id = {ineq.value: IdSummary() for ineq, _ in tagged}
    for r in results:
        per_id[r.id].add(r)
    return results, per_id


def run_suite(
    ids,
    trials: int,
    dims,
    norms,
    seed: int,
    *,
    context: CheckContext = DEFAULT_CONTEXT,
) -> SuiteReport:
    """Randomized certified verification over every requested identifier.

    Per identifier, ``trials`` independent inputs are generated and
    checked as _run_trials describes.  The report is a deterministic
    function of the arguments (wall time aside).
    """
    id_list = _normalize_ids(ids)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive integers, got {dims}")
    norm_list = list(norms)
    if not norm_list:
        raise ValueError("empty norm set")

    tagged = [(ineq, 1000 + idx) for idx, ineq in enumerate(id_list)]
    start = time.perf_counter()
    results, per_id = _run_trials(tagged, trials, dims, norm_list, seed, context)
    wall = time.perf_counter() - start
    config = {
        "ids": [i.value for i in id_list],
        "trials": trials,
        "dims": dims,
        "norms": [n.label for n in norm_list],
        "seed": seed,
        "grid": context.grid,
        "refine_tol": context.refine_tol,
        "alpha_inflation": _ALPHA_INFLATION,
        "m_fold": context.m_fold,
        "mode": "verify",
    }
    return SuiteReport(config=config, per_id=per_id, wall_time_s=wall, results=results)


# --- tightness --------------------------------------------------------------

_VOLTERRA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)

_FIXTURES: dict[str, list[tuple]] = {
    "A_lower": [(_VOLTERRA,)],
    "A_upper": [(np.diag([1.0, 1.0j]).astype(np.complex128),)],
    "B_prod4": [(_VOLTERRA, _VOLTERRA.T.copy())],
    "H2_hermitian_had": [
        (np.diag([1.0, 0.0]).astype(np.complex128), np.diag([1.0, 0.0]).astype(np.complex128))
    ],
}


def tightness_scan(
    id: InequalityId | str,
    trials: int,
    seed: int,
    *,
    context: CheckContext = DEFAULT_CONTEXT,
) -> SuiteReport:
    """Maximum lhs/rhs ratio over random inputs plus extremal fixtures."""
    ineq = InequalityId(id)
    info = REGISTRY[ineq]
    if info.block is not None:
        raise ValueError(f"{ineq.value} is a positivity check, not a two-sided comparison")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    dims = (2, 3, 4)
    results, per_id = _run_trials([(ineq, 77)], trials, dims, DEFAULT_NORMS, seed, context)
    for fixture in _FIXTURES.get(ineq, []):
        for norm in DEFAULT_NORMS:
            r = check_inequality(ineq, list(fixture), norm, context=context, seed=None)
            r = replace(r, note=(r.note + "; " if r.note else "") + "fixture")
            results.append(r)
            per_id[ineq.value].add(r)
    config = {
        "ids": [ineq.value],
        "trials": trials,
        "dims": list(dims),
        "norms": [n.label for n in DEFAULT_NORMS],
        "seed": seed,
        "mode": "tightness",
    }
    return SuiteReport(config=config, per_id=per_id, wall_time_s=0.0, results=results)


def explain(id: InequalityId | str) -> str:
    """Human-readable statement and hypotheses for one identifier."""
    ineq = InequalityId(id)
    info = REGISTRY[ineq]
    norm_mode = "classical numerical radius (operator norm)" if info.classical else "any shipped norm N"
    arity = "m >= 2 inputs" if info.arity == 0 else f"{info.arity} input(s)"
    requires = info.requires.value if info.requires else "none"
    return (
        f"{ineq.value}\n"
        f"  statement : {info.statement}\n"
        f"  hypotheses: {info.hypotheses}\n"
        f"  norm      : {norm_mode}\n"
        f"  inputs    : {arity} (hypothesis: {requires})\n"
    )
