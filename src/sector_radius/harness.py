"""Named, certified checks for the numerical radius inequality suite.

Every inequality the library verifies has a stable identifier.  A check
evaluates both sides as enclosing intervals: radius estimates contribute
[value, value + cert_error], norms enter as points padded by the SVD's
error model, diagonal maxima with a small relative pad, and sec/tan
factors are evaluated at the computed sector index inflated by a
configurable margin, and the inflated index is verified to bound the
numerical range before it is used.  The verdict is certified only when
the intervals separate.

Each identifier is one row of REGISTRY: its inputs, its hypothesis, and
both sides written in a small vocabulary of terms (see
docs/inequalities.md).  One evaluator checks the hypothesis and computes
every distinct term of a row once, all of the row's radii in one
omega_n call.

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
from .linalg import DimensionError, as_matrix, cartesian_decompose, frobenius, hadamard
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


class InequalityId(str, Enum):
    A_lower = "A_lower"
    A_upper = "A_upper"
    B_prod4 = "B_prod4"
    C_had2 = "C_had2"
    I_diag_psd = "I_diag_psd"
    II_prod_sec = "II_prod_sec"
    III_had_sec = "III_had_sec"
    VI_had_diag_min = "VI_had_diag_min"
    L1_norm_sec = "L1_norm_sec"
    L2_block_tan = "L2_block_tan"
    L3_block_sec = "L3_block_sec"
    P1_re_mono = "P1_re_mono"
    P2_im_tan = "P2_im_tan"
    P3_sec = "P3_sec"
    SA_omega_le_N = "SA_omega_le_N"
    T1_prod_sec_N = "T1_prod_sec_N"
    C_B2_sec2 = "C_B2_sec2"
    C_AD_prod2 = "C_AD_prod2"
    C_mprod = "C_mprod"
    C_secm = "C_secm"
    C_AD_m = "C_AD_m"
    H2_hermitian_had = "H2_hermitian_had"
    H3_had_sec_N = "H3_had_sec_N"
    C_C2_had = "C_C2_had"
    T_had_m = "T_had_m"
    C_AD_had_m = "C_AD_had_m"
    L6_had_diag_norm = "L6_had_diag_norm"
    L7_had_diag_omega = "L7_had_diag_omega"
    T_diag_x = "T_diag_x"
    T_diag_y = "T_diag_y"
    C_diag_min = "C_diag_min"
    C_AD_diag_min2 = "C_AD_diag_min2"
    T_onetan_min = "T_onetan_min"
    C_onetan = "C_onetan"


@dataclass(frozen=True)
class CheckContext:
    """Shared numerical settings for a batch of checks.

    ``grid`` is the number of uniform start cells of every radius
    computation; Newton polishing and certification down to
    ``refine_tol`` carry the accuracy, so a coarse grid only seeds them.
    ``alpha_inflation`` is added to every computed sector index before a
    sec or tan factor is taken, covering the index's rounding error; the
    inflated index is then checked to contain the numerical range and the
    inflation doubled until it does.  ``m_fold`` is the number of inputs
    suites generate for an m-fold identifier.
    """

    grid: int = DEFAULT_GRID
    refine_tol: float = 1e-10
    alpha_inflation: float = 1e-8
    m_fold: int = 3


DEFAULT_CONTEXT = CheckContext()
DEFAULT_DIMS = (2, 3, 4, 5, 6)
DEFAULT_NORMS = (OPERATOR, TRACE, FROBENIUS, schatten(3))

_NORM_PAD = 1e-12
_SVD_BACKWARD = 4.0
_DIAG_PAD = 1e-15
_PSD_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)


class Inapplicable(Exception):
    """A matrix-property precondition of the check does not hold."""


# --- hypotheses -------------------------------------------------------------


def _norm_iv(spec: NormSpec, X: np.ndarray) -> Interval:
    """N(X) from one SVD, padded by the SVD's error model.

    Each computed singular value is within _SVD_BACKWARD * n * eps * sigma_1
    of the exact one (Golub and Van Loan, Matrix Computations, section
    8.6), so a Schatten-p norm is within n^(1/p) times that; sigma_1 is
    at most N(X).
    """
    value = evaluate_norm(spec, X)
    n = X.shape[0]
    pad = n ** (1.0 / spec.schatten_p) * _SVD_BACKWARD * n * _EPS * value
    return Interval.point(value, abs_=pad)


def _class_info(X: np.ndarray, ctx: CheckContext, which: str) -> SectorInfo:
    try:
        info = rotation_to_sector(X)
    except NotSectorialError as exc:
        raise Inapplicable(f"{which}: input is not sectorial: {exc}") from None
    return _verified(info, X, ctx)


def _accretive_info(X: np.ndarray, ctx: CheckContext, which: str) -> SectorInfo:
    try:
        info = sector_index(X)
    except (NotSectorialError, ValueError) as exc:
        raise Inapplicable(f"{which}: input is not accretive sectorial: {exc}") from None
    return _verified(info, X, ctx)


def _verified(info: SectorInfo, X: np.ndarray, ctx: CheckContext) -> SectorInfo:
    """``info`` with its index inflated until W(zX) provably fits the sector.

    For a < pi/2, W(Y) lies in the closed sector of half-width a exactly
    when Im(e^{-ia} Y) <= 0 and Im(e^{ia} Y) >= 0, that is when both
    +-cos(a) Im Y - sin(a) Re Y are negative semidefinite.  Their computed
    top eigenvalues must clear the eigensolver's backward error
    n * eps * ||H||; the inflation starts at ``alpha_inflation`` and
    doubles until they do.
    """
    re, im = cartesian_decompose(info.rotation_z * X)
    slack = X.shape[0] * _EPS * (frobenius(re) + frobenius(im))
    inflation = ctx.alpha_inflation
    while True:
        a = info.index_alpha + inflation
        if a >= math.pi / 2:
            raise Inapplicable(f"inflated sector index {a:.12f} reaches pi/2")
        c, s = math.cos(a), math.sin(a)
        top = np.linalg.eigvalsh(np.stack([c * im - s * re, -c * im - s * re]))[:, -1]
        if top.max() <= -slack:
            return replace(info, index_alpha=a)
        inflation = max(2.0 * inflation, _EPS)


def _is_hermitian(X: np.ndarray) -> bool:
    return float(np.linalg.norm(X - X.conj().T)) <= 1e-12 * frobenius(X)


def _lambda_min(X: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((X + X.conj().T) / 2)[0])


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
    if not _is_hermitian(X):
        raise Inapplicable(f"{which} is not Hermitian")
    lam = _lambda_min(X)
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


def _check_hypothesis(kind, mats, ctx: CheckContext, arity: int) -> tuple[list[SectorInfo], str]:
    """Sector data of each input and a note, once ``kind`` holds.

    Inputs are tested in order and the first violation raises
    Inapplicable, so its note is the one reported.  Only SECTORIAL and
    ACCRETIVE return sector data; PSD_NOTE returns a note instead of
    raising.
    """
    names = [("first input", "second input")[k] if arity else f"input {k}" for k in range(len(mats))]
    if kind is Hypothesis.SECTORIAL:
        return [_class_info(M, ctx, which) for M, which in zip(mats, names)], ""
    if kind is Hypothesis.ACCRETIVE:
        return [_accretive_info(M, ctx, which) for M, which in zip(mats, names)], ""
    if kind is Hypothesis.ACCRETIVE_DISSIPATIVE:
        for M, which in zip(mats, names):
            _require_accretive_dissipative(M, which)
    elif kind is Hypothesis.PD_SECOND:
        _require_pd(mats[1], "second input")
    elif kind is Hypothesis.ONE_HERMITIAN:
        if not any(_is_hermitian(M) for M in mats):
            raise Inapplicable("neither input is Hermitian")
    elif kind is Hypothesis.PSD_NOTE:
        A = mats[0]
        if not (_is_hermitian(A) and _lambda_min(A) >= -1e-10 * max(1.0, frobenius(A))):
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

    def terms(self, expr):
        """The terms of a side, in the order side() first uses them."""
        if isinstance(expr, tuple):
            for f in expr:
                if not isinstance(f, Each):
                    yield from self.terms(f)
                elif isinstance(f.term, type):
                    for k in range(len(self.mats)):
                        yield from self.terms(f.term(k))
                else:
                    yield f.term
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
            factors = []
            for f in expr:
                if not isinstance(f, Each):
                    factors.append(self.side(f))
                elif isinstance(f.term, type):
                    factors.extend(self.side(f.term(k)) for k in range(len(self.mats)))
                else:
                    factors.extend(self.side(f.term) for _ in self.mats)
            return reduce(operator.mul, factors)
        if isinstance(expr, Scale):
            return self.side(expr.of).scale(expr.c)
        if isinstance(expr, Min):
            return Interval.min_of(self.side(expr.a), self.side(expr.b))
        return self._once(expr, lambda: expr.interval(self))


# --- registry -------------------------------------------------------------


@dataclass(frozen=True)
class IdInfo:
    """One identifier as data: its inputs, its hypothesis and both sides.

    ``requires`` is checked before anything else.  ``product`` combines
    the inputs into PRODUCT (np.matmul, hadamard or None).  A row with
    ``block`` is a positivity certificate: block(zX, a) is tested for
    PSD in place of lhs <= rhs.
    """

    id: InequalityId
    arity: int  # 0 means m-fold (any arity >= 2; suites use CheckContext.m_fold)
    profile: str
    classical: bool
    comparable: bool
    statement: str
    hypotheses: str
    requires: Hypothesis | None = None
    product: object = None
    lhs: object = None
    rhs: object = None
    block: object = None


_I = InequalityId
_H = Hypothesis
_DIAG_MIN = Min((DiagAbsMax(_X), Omega(_Y)), (DiagAbsMax(_Y), Omega(_X)))
REGISTRY: dict[InequalityId, IdInfo] = {
    info.id: info
    for info in (
        IdInfo(_I.A_lower, 1, "any", True, True,
               "0.5 * ||X|| <= w(X)",
               "any square X; operator norm",
               lhs=Scale(0.5, Norm(_X)), rhs=Omega(_X)),
        IdInfo(_I.A_upper, 1, "any", True, True,
               "w(X) <= ||X||",
               "any square X; operator norm",
               lhs=Omega(_X), rhs=Norm(_X)),
        IdInfo(_I.B_prod4, 2, "any2", True, True,
               "w(X Y) <= 4 w(X) w(Y)",
               "any square X, Y; the constant 4 is sharp",
               product=np.matmul, lhs=Omega(PRODUCT), rhs=Scale(4.0, (Omega(_X), Omega(_Y)))),
        IdInfo(_I.C_had2, 2, "any2", True, True,
               "w(X o Y) <= 2 w(X) w(Y)",
               "any square X, Y; the constant 2 is sharp",
               product=hadamard, lhs=Omega(PRODUCT), rhs=Scale(2.0, (Omega(_X), Omega(_Y)))),
        IdInfo(_I.I_diag_psd, 2, "pd_any", True, True,
               "w(A o X) <= (max_j a_jj) w(X)",
               "A positive semidefinite (enforced by suite generation; the check "
               "still evaluates on other inputs and can certify failure)",
               _H.PSD_NOTE, hadamard, Omega(PRODUCT), (DiagReMax(_X), Omega(_Y))),
        IdInfo(_I.II_prod_sec, 2, "sectorial2", True, True,
               "w(X Y) <= sec(a1) sec(a2) w(X) w(Y)",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec), Each(Omega))),
        IdInfo(_I.III_had_sec, 2, "sectorial2", True, True,
               "w(X o Y) <= sec(a1) sec(a2) w(X) w(Y)",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), Each(Omega))),
        IdInfo(_I.VI_had_diag_min, 2, "sectorial2", True, True,
               "w(X o Y) <= sec(a1) sec(a2) min(max_j |x_jj| w(Y), max_j |y_jj| w(X))",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), _DIAG_MIN)),
        IdInfo(_I.L1_norm_sec, 1, "sectorial", False, True,
               "N(zX) <= sec(a) N(Re(zX))",
               "z the witnessing rotation, a the class index of X",
               _H.SECTORIAL, lhs=Norm(Rotated(_X)), rhs=(Sec(_X), Norm(Re(Rotated(_X))))),
        IdInfo(_I.L2_block_tan, 1, "sectorial", False, False,
               "[[tan(a) Re(zX), Im(zX)], [Im(zX), tan(a) Re(zX)]] >= 0",
               "z the witnessing rotation, a the class index of X",
               _H.SECTORIAL, block=tan_block),
        IdInfo(_I.L3_block_sec, 1, "sectorial", False, False,
               "[[sec(a) Re(zX), zX], [(zX)*, sec(a) Re(zX)]] >= 0",
               "z the witnessing rotation, a the class index of X",
               _H.SECTORIAL, block=sec_block),
        IdInfo(_I.P1_re_mono, 1, "any", False, True,
               "w_N(Re X) <= w_N(X)",
               "any square X",
               lhs=Omega(Re(_X)), rhs=Omega(_X)),
        IdInfo(_I.P2_im_tan, 1, "sectorial", False, True,
               "w_N(Im(zX)) <= tan(a) w_N(Re(zX))",
               "z the witnessing rotation, a the class index of X",
               _H.SECTORIAL, lhs=Omega(Im(Rotated(_X))), rhs=(Tan(_X), Omega(Re(Rotated(_X))))),
        IdInfo(_I.P3_sec, 1, "sectorial", False, True,
               "w_N(zX) <= sec(a) w_N(Re(zX))",
               "z the witnessing rotation, a the class index of X",
               _H.SECTORIAL, lhs=Omega(Rotated(_X)), rhs=(Sec(_X), Omega(Re(Rotated(_X))))),
        IdInfo(_I.SA_omega_le_N, 1, "any", False, True,
               "w_N(X) <= N(X)",
               "any square X",
               lhs=Omega(_X), rhs=Norm(_X)),
        IdInfo(_I.T1_prod_sec_N, 2, "sectorial2", False, True,
               "w_N(X Y) <= sec(a1) sec(a2) w_N(X) w_N(Y)",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec), Each(Omega))),
        IdInfo(_I.C_B2_sec2, 2, "sectorial2_same", False, True,
               "w_N(X Y) <= sec(a)^2 w_N(X) w_N(Y)",
               "X, Y in a common rotated sector class of index a",
               _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec(MAX)), Each(Omega))),
        IdInfo(_I.C_AD_prod2, 2, "accdis2", False, True,
               "w_N(X Y) <= 2 w_N(X) w_N(Y)",
               "X, Y accretive-dissipative",
               _H.ACCRETIVE_DISSIPATIVE, np.matmul, Omega(PRODUCT),
               Scale(2.0, (Omega(_X), Omega(_Y)))),
        IdInfo(_I.C_mprod, 0, "sectorial_m", False, True,
               "w_N(X_1 ... X_m) <= (prod_j sec(a_j)) prod_j w_N(X_j)",
               "each X_j in a rotated sector class with index a_j",
               _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec), Each(Omega))),
        IdInfo(_I.C_secm, 0, "sectorial_m_same", False, True,
               "w_N(X_1 ... X_m) <= sec(a)^m prod_j w_N(X_j)",
               "all X_j in a common rotated sector class of index a",
               _H.SECTORIAL, np.matmul, Omega(PRODUCT), (Each(Sec(MAX)), Each(Omega))),
        IdInfo(_I.C_AD_m, 0, "accdis_m", False, True,
               "w_N(X_1 ... X_m) <= 2^(m/2) prod_j w_N(X_j)",
               "each X_j accretive-dissipative",
               _H.ACCRETIVE_DISSIPATIVE, np.matmul, Omega(PRODUCT), (Const(2.0, 0.5), Each(Omega))),
        IdInfo(_I.H2_hermitian_had, 2, "herm_any", False, True,
               "w_N(X o Y) <= w_N(X) w_N(Y)",
               "at least one of X, Y Hermitian",
               _H.ONE_HERMITIAN, hadamard, Omega(PRODUCT), (Omega(_X), Omega(_Y))),
        IdInfo(_I.H3_had_sec_N, 2, "sectorial2", False, True,
               "w_N(X o Y) <= sec(a1) sec(a2) w_N(X) w_N(Y)",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), Each(Omega))),
        IdInfo(_I.C_C2_had, 2, "sectorial2_same", False, True,
               "w_N(X o Y) <= sec(a)^2 w_N(X) w_N(Y)",
               "X, Y in a common rotated sector class of index a",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec(MAX)), Each(Omega))),
        IdInfo(_I.T_had_m, 0, "sectorial_m", False, True,
               "w_N(X_1 o ... o X_m) <= (prod_j sec(a_j)) prod_j w_N(X_j)",
               "each X_j in a rotated sector class with index a_j",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), Each(Omega))),
        IdInfo(_I.C_AD_had_m, 0, "accdis_m", False, True,
               "w_N(X_1 o ... o X_m) <= 2^(m/2) prod_j w_N(X_j)",
               "each X_j accretive-dissipative",
               _H.ACCRETIVE_DISSIPATIVE, hadamard, Omega(PRODUCT), (Const(2.0, 0.5), Each(Omega))),
        IdInfo(_I.L6_had_diag_norm, 2, "any_pd", False, True,
               "N(X o Y) <= (max_i y_ii) N(X)",
               "Y positive definite",
               _H.PD_SECOND, hadamard, Norm(PRODUCT), (DiagReMax(_Y), Norm(_X))),
        IdInfo(_I.L7_had_diag_omega, 2, "any_pd", False, True,
               "w_N(X o Y) <= (max_i y_ii) w_N(X)",
               "Y positive definite",
               _H.PD_SECOND, hadamard, Omega(PRODUCT), (DiagReMax(_Y), Omega(_X))),
        IdInfo(_I.T_diag_x, 2, "sectorial2", False, True,
               "w_N(X o Y) <= sec(a1) sec(a2) (max_j |x_jj|) w_N(Y)",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), DiagAbsMax(_X), Omega(_Y))),
        IdInfo(_I.T_diag_y, 2, "sectorial2", False, True,
               "w_N(X o Y) <= sec(a1) sec(a2) (max_j |y_jj|) w_N(X)",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), DiagAbsMax(_Y), Omega(_X))),
        IdInfo(_I.C_diag_min, 2, "sectorial2", False, True,
               "w_N(X o Y) <= sec(a1) sec(a2) min(max_j |x_jj| w_N(Y), max_j |y_jj| w_N(X))",
               "X, Y in rotated sector classes with indices a1, a2",
               _H.SECTORIAL, hadamard, Omega(PRODUCT), (Each(Sec), _DIAG_MIN)),
        IdInfo(_I.C_AD_diag_min2, 2, "accdis2", False, True,
               "w_N(X o Y) <= 2 min(max_j |x_jj| w_N(Y), max_j |y_jj| w_N(X))",
               "X, Y accretive-dissipative",
               _H.ACCRETIVE_DISSIPATIVE, hadamard, Omega(PRODUCT), Scale(2.0, _DIAG_MIN)),
        IdInfo(_I.T_onetan_min, 2, "accretive2", False, True,
               "w_N(X o Y) <= min((1 + tan a1) w_N(Re X) w_N(Y), (1 + tan a2) w_N(X) w_N(Re Y))",
               "X, Y accretive with sector indices a1, a2 (ranges inside the "
               "sectors themselves, no rotation)",
               _H.ACCRETIVE, hadamard, Omega(PRODUCT),
               Min((OnePlusTan(_X), Omega(Re(_X)), Omega(_Y)), (OnePlusTan(_Y), Omega(_X), Omega(Re(_Y))))),
        IdInfo(_I.C_onetan, 2, "accretive2_same", False, True,
               "w_N(X o Y) <= (1 + tan a) w_N(X) w_N(Y), a = max(a1, a2)",
               "X, Y accretive with sector indices a1, a2",
               _H.ACCRETIVE, hadamard, Omega(PRODUCT), (OnePlusTan(MAX), Omega(_X), Omega(_Y))),
    )
}


def all_ids() -> list[InequalityId]:
    return list(REGISTRY.keys())


def _evaluate(info: IdInfo, mats, spec: NormSpec, ctx: CheckContext) -> tuple[Interval, Interval, str]:
    infos, note = _check_hypothesis(info.requires, mats, ctx, info.arity)
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

_ALPHA_MAX = 1.4


def _uniform(seed: int, tag: int, lo: float, hi: float) -> float:
    rng = np.random.Generator(np.random.Philox(key=mix_seed(seed, tag)))
    return lo + (hi - lo) * float(rng.random())


def _gin(n: int, seed: int, tag: int) -> np.ndarray:
    return random_ginibre(GenConfig(n, mix_seed(seed, tag)))


def _rotated_sectorial(n: int, seed: int, tag: int, alpha: float) -> np.ndarray:
    X = random_sectorial(GenConfig(n, mix_seed(seed, tag)), alpha)
    phi = _uniform(seed, tag + 40, 0.0, 2.0 * math.pi)
    return np.exp(1j * phi) * X


def generate_inputs(profile: str, n: int, seed: int, m_fold: int = 3) -> list[np.ndarray]:
    """Deterministic conforming inputs for one trial of a given profile."""
    if profile == "any":
        return [_gin(n, seed, 1)]
    if profile == "any2":
        return [_gin(n, seed, 1), _gin(n, seed, 2)]
    if profile == "pd_any":
        return [random_pd(GenConfig(n, mix_seed(seed, 1))), _gin(n, seed, 2)]
    if profile == "any_pd":
        return [_gin(n, seed, 1), random_pd(GenConfig(n, mix_seed(seed, 2)))]
    if profile == "herm_any":
        G = _gin(n, seed, 2)
        return [_gin(n, seed, 1), (G + G.conj().T) / 2]
    if profile == "sectorial":
        return [_rotated_sectorial(n, seed, 1, _uniform(seed, 31, 0.0, _ALPHA_MAX))]
    if profile == "sectorial2":
        return [
            _rotated_sectorial(n, seed, 1, _uniform(seed, 31, 0.0, _ALPHA_MAX)),
            _rotated_sectorial(n, seed, 2, _uniform(seed, 32, 0.0, _ALPHA_MAX)),
        ]
    if profile == "sectorial2_same":
        alpha = _uniform(seed, 31, 0.0, _ALPHA_MAX)
        return [_rotated_sectorial(n, seed, 1, alpha), _rotated_sectorial(n, seed, 2, alpha)]
    if profile == "sectorial_m":
        return [
            _rotated_sectorial(n, seed, 1 + j, _uniform(seed, 31 + j, 0.0, _ALPHA_MAX))
            for j in range(m_fold)
        ]
    if profile == "sectorial_m_same":
        alpha = _uniform(seed, 31, 0.0, _ALPHA_MAX)
        return [_rotated_sectorial(n, seed, 1 + j, alpha) for j in range(m_fold)]
    if profile == "accretive2":
        return [
            random_sectorial(GenConfig(n, mix_seed(seed, 1)), _uniform(seed, 31, 0.0, _ALPHA_MAX)),
            random_sectorial(GenConfig(n, mix_seed(seed, 2)), _uniform(seed, 32, 0.0, _ALPHA_MAX)),
        ]
    if profile == "accretive2_same":
        alpha = _uniform(seed, 31, 0.0, _ALPHA_MAX)
        return [
            random_sectorial(GenConfig(n, mix_seed(seed, 1)), alpha),
            random_sectorial(GenConfig(n, mix_seed(seed, 2)), alpha),
        ]
    if profile == "accdis2":
        return [
            random_accretive_dissipative(GenConfig(n, mix_seed(seed, 1))),
            random_accretive_dissipative(GenConfig(n, mix_seed(seed, 2))),
        ]
    if profile == "accdis_m":
        return [
            random_accretive_dissipative(GenConfig(n, mix_seed(seed, 1 + j)))
            for j in range(m_fold)
        ]
    raise ValueError(f"unknown input profile {profile!r}")


# --- suite runner -----------------------------------------------------------


def _normalize_ids(ids) -> list[InequalityId]:
    if ids == "all" or ids is None:
        return all_ids()
    wanted = [InequalityId(i) for i in ids]
    if not wanted:
        raise ValueError("empty id set")
    # Preserve registry order, drop duplicates.
    wanted_set = set(wanted)
    return [i for i in all_ids() if i in wanted_set]


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

    Per identifier, ``trials`` independent inputs are generated; trial t
    uses dimension dims[t mod len(dims)] and norm norms[(t div len(dims))
    mod len(norms)], so every dimension/norm combination is exercised.
    The report is a deterministic function of the arguments (wall time
    aside).
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

    tasks = []
    for idx, ineq in enumerate(id_list):
        profile = REGISTRY[ineq].profile
        for t in range(trials):
            dim = dims[t % len(dims)]
            norm = norm_list[(t // len(dims)) % len(norm_list)]
            tseed = mix_seed(seed, 1000 + idx, t)
            tasks.append((ineq, profile, dim, norm, tseed))

    def run_one(task):
        ineq, profile, dim, norm, tseed = task
        mats = generate_inputs(profile, dim, tseed, context.m_fold)
        return check_inequality(ineq, mats, norm, context=context, seed=tseed)

    start = time.perf_counter()
    results = [run_one(t) for t in tasks]
    wall = time.perf_counter() - start

    per_id = {i.value: IdSummary() for i in id_list}
    for r in results:
        per_id[r.id].add(r)
    config = {
        "ids": [i.value for i in id_list],
        "trials": trials,
        "dims": dims,
        "norms": [n.label for n in norm_list],
        "seed": seed,
        "grid": context.grid,
        "refine_tol": context.refine_tol,
        "alpha_inflation": context.alpha_inflation,
        "m_fold": context.m_fold,
        "mode": "verify",
    }
    return SuiteReport(config=config, per_id=per_id, wall_time_s=wall, results=results)


# --- tightness --------------------------------------------------------------

_VOLTERRA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)

_FIXTURES: dict[InequalityId, list[tuple]] = {
    InequalityId.A_lower: [(_VOLTERRA,)],
    InequalityId.A_upper: [(np.diag([1.0, 1.0j]).astype(np.complex128),)],
    InequalityId.B_prod4: [(_VOLTERRA, _VOLTERRA.T.copy())],
    InequalityId.H2_hermitian_had: [
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
    if not info.comparable:
        raise ValueError(f"{ineq.value} is a positivity check, not a two-sided comparison")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    dims = (2, 3, 4)
    results = []
    for t in range(trials):
        dim = dims[t % len(dims)]
        norm = DEFAULT_NORMS[(t // len(dims)) % len(DEFAULT_NORMS)]
        tseed = mix_seed(seed, 77, t)
        mats = generate_inputs(info.profile, dim, tseed, context.m_fold)
        results.append(check_inequality(ineq, mats, norm, context=context, seed=tseed))
    for fixture in _FIXTURES.get(ineq, []):
        for norm in DEFAULT_NORMS:
            r = check_inequality(ineq, list(fixture), norm, context=context, seed=None)
            results.append(replace(r, note=(r.note + "; " if r.note else "") + "fixture"))
    per_id = {ineq.value: IdSummary()}
    for r in results:
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
    return (
        f"{ineq.value}\n"
        f"  statement : {info.statement}\n"
        f"  hypotheses: {info.hypotheses}\n"
        f"  norm      : {norm_mode}\n"
        f"  inputs    : {arity} (suite profile: {info.profile})\n"
    )
