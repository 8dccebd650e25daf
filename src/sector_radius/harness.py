"""Named, certified checks for the numerical radius inequality suite.

Every inequality the library verifies has a stable identifier.  A check
evaluates both sides as enclosing intervals: radius estimates contribute
[value, value + cert_error], norms enter as points padded by the SVD's
error model, and diagonal maxima, constants and sec/tan factors as
points padded by the error of their own library call and roundings
(2 eps relative, none for a diagonal real part, which is exact).  Sec/tan
factors are evaluated at the computed sector index inflated until it
provably bounds the numerical range, and a block row is certified
against 0 at the index a' that its note states, inflated the same way.
The verdict is certified only when the intervals separate.

Each identifier is one row of REGISTRY and is stated nowhere else: its
inputs, its hypothesis, and both sides written in a small vocabulary of
terms (see docs/inequalities.md).  InequalityId is built from the rows,
and suites draw each row's inputs from its hypothesis (generate_inputs).
Every check, explicit (check_inequality) or drawn (run_suite), is one
_certify call: it gates the hypothesis and evaluates the row's plan, its
sides written out once per input count (_plan): each term once, its
radii in one omega_n call.

A suite certifies each check only as far as its verdict needs, on the
ladder of radius passes _COARSE_PASSES and then grid 32
(radius.DEFAULT_GRID) at the context's refine_tol, each pass only while
the sides of the one before overlap (run_suite).  The first rung puts
every radius in its Cartesian bracket [max(N(Re X), N(Im X)),
hypot(N(Re X), N(Im X))] from two samples.  check_inequality and
tightness_scan always certify from grid 32 to the context's refine_tol.

Explicit inputs are verified: their sector data come from a search, one
sectorial.rotation_to_sector or sector_index call per input in order,
verified by an inflated Cholesky test (_verified), and a positive
definite or accretive-dissipative input passes linalg.pd_certificate.
Drawn inputs are proven by construction: a suite draw is an exact dyadic
congruence (see the generator module), so the draw knows the hypothesis
holds and knows each sectorial input's witness, its index and rotation to
a few ulps, and generate_inputs hands over that proof.  The suite gate
accepts it in place of every test (_takes_proof); only the one-input
sectorial rows still search, since they check a matrix of the rotated zX
itself.

IDs whose statement involves the classical numerical radius always run
with the operator norm regardless of the requested norm; the remaining
IDs are parametric in any member of the shipped norm family.
"""

from __future__ import annotations

import cmath
import math
import operator
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, reduce
from typing import ClassVar

import numpy as np

from .generator import (
    GenConfig,
    Streams,
    _accretive_dissipative,
    _exact_sectorial,
    _ginibre,
    _hermitian_part,
    _local_streams,
    _pd,
    mix_seed,
)
from .linalg import (
    LAPACK_BACKWARD,
    DimensionError,
    as_matrix,
    as_scaled_stack,
    cartesian_decompose,
    cartesian_parts,
    frobenius,
    hadamard,
    is_hermitian,
    pd_certificate,
    scaled_lambda_min,
)
from .norms import FROBENIUS, OPERATOR, TRACE, NormSpec, evaluate_norm, schatten
from .radius import DEFAULT_GRID, DEFAULT_REFINE_TOL, check_refine_tol, omega_n
from .report import CheckResult, IdSummary, Interval, SuiteReport, classify
from .sectorial import (
    NotSectorialError,
    SectorInfo,
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


def _integer(name: str, value, least: float = -math.inf) -> int:
    """``value`` as a Python int; ValueError unless it is a Python or numpy integer >= ``least``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        at_least = f" >= {least}" if least > -math.inf else ""
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CheckContext:
    """Shared numerical settings for a batch of checks.

    ``grid`` is a constant, not a field: every tight radius starts on
    grid 32 (radius.DEFAULT_GRID), since certification down to
    ``refine_tol`` carries the accuracy and the grid only seeds it.
    ``refine_tol`` (positive) is the certified width of every radius,
    relative to its profile's Lipschitz constant, for check_inequality and
    tightness_scan; run_suite reaches it only for the checks that its
    coarse passes leave open.
    ``m_fold`` is the number of inputs suites generate for an m-fold
    identifier, an integer >= 2.  Every field is checked here, so a suite
    refuses a bad setting before it runs, and stored as a Python int or
    float (numpy scalars are converted, bools refused).
    """

    grid: ClassVar[int] = DEFAULT_GRID
    refine_tol: float = DEFAULT_REFINE_TOL
    m_fold: int = 3

    def __post_init__(self):
        object.__setattr__(self, "refine_tol", check_refine_tol(self.refine_tol))
        object.__setattr__(self, "m_fold", _integer("m_fold", self.m_fold, 2))


DEFAULT_CONTEXT = CheckContext()
DEFAULT_DIMS = (2, 3, 4, 5, 6)
DEFAULT_NORMS = (OPERATOR, TRACE, FROBENIUS, schatten(3))

# The first inflation of every computed sector index before a sec or tan
# factor or a block is taken, covering the index's rounding (_inflated).
_ALPHA_INFLATION = 1e-8
_EPS = float(np.finfo(np.float64).eps)
# The (start grid, radius tolerance) rungs of run_suite before its tight
# pass.  A coarse cell's covering term exceeds its sample f by
# (1/cos(h + pad) - 1) f, no sample exceeds the Lipschitz constant
# L = N(Re X) + N(Im X), and a cell passes within L tol/2 of the best
# sample; 1/cos(h + pad) - 1 is 0.414 < 1.0/2 on 4 cells (h = pi/4) and
# 0.0824 < 0.2/2 on 8.  So every coarse cell passes, and a general radius
# is one eigvalsh of its even samples: theta = 0 and pi/2 on the first
# rung, whose interval is then the Cartesian bracket, and 4 samples on the
# second.  Every coarse radius is a certified enclosure, and nearly every
# suite check separates on the bracket.
_COARSE_PASSES = ((4, 1.0), (8, 0.2))
# Verdicts that a tighter radius cannot change.
_SETTLED = ("certified_pass", "certified_fail")
# Each row's plan for each input count (_plan), keyed on (id, m).
_PLANS: dict[tuple[str, int], tuple] = {}


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


def _input_name(k: int, arity: int) -> str:
    """How a note names input k of a row of ``arity`` inputs (0 for an m-fold row)."""
    return ("first input", "second input")[k] if arity else f"input {k}"


def _sector_data(search, mats, arity: int, errors, what: str) -> list[SectorInfo]:
    """Verified sector data of every input, from one ``search`` call per input, in order.

    ``search`` is rotation_to_sector or sector_index.  When input k
    raises one of ``errors``, inputs 0..k-1 are verified first, so an
    index of theirs that reaches pi/2 names the note, and otherwise input
    k does.
    """
    infos = []
    for k, X in enumerate(mats):
        try:
            infos.append(search(X))
        except errors as exc:
            if k:
                _verified(infos, mats[:k])
            raise Inapplicable(f"{_input_name(k, arity)}: {what}: {exc}") from None
    return _verified(infos, mats)


def _inflated(infos: list[SectorInfo], clears) -> list[tuple[float, object]]:
    """(index, certificate) of each input, its index inflated until ``clears`` certifies it.

    The inflation starts at _ALPHA_INFLATION and doubles.  ``clears(ks,
    alphas)`` tries inputs ks at indices alphas in one batched solve and
    returns a certificate, or None, for each.  An input whose index reaches
    pi/2 is inapplicable; the first such input, in order, names the note.
    """
    inflation = [_ALPHA_INFLATION] * len(infos)
    alpha = [info.index_alpha + _ALPHA_INFLATION for info in infos]
    found, open_ = {}, range(len(infos))
    while open_ := [k for k in open_ if k not in found and alpha[k] < math.pi / 2]:
        for k, got in zip(open_, clears(open_, [alpha[k] for k in open_])):
            if got is None:
                inflation[k] = max(2.0 * inflation[k], _EPS)
                alpha[k] = infos[k].index_alpha + inflation[k]
            else:
                found[k] = got
    for k in range(len(infos)):
        if k not in found:
            raise Inapplicable(f"inflated sector index {alpha[k]:.12f} reaches pi/2")
    return [(alpha[k], found[k]) for k in range(len(infos))]


def _verified(infos: list[SectorInfo], mats) -> list[SectorInfo]:
    """Each ``info`` with its index inflated (_inflated) until W(zX) provably fits the sector.

    For a < pi/2, W(Y) lies in the closed sector of half-width a exactly
    when Im(e^{-ia} Y) <= 0 and Im(e^{ia} Y) >= 0, that is when both H+-
    = sin(a) Re Y -+ cos(a) Im Y are positive semidefinite.  Each try is
    one ``pd_certificate`` of the pair over the open inputs, each with
    the bits it gets alone, with the forming budget of H+- as its extra
    shift.  The computed H differs from the exact one entrywise by at
    most 6 eps (|Re Y| + |Im Y|): 2 for the products and the difference of
    s Re - c Im, 1 for s and c against sin(a) and cos(a), 1 for the
    Cartesian parts, and 2 for the product Y = zX itself (a complex
    product is within sqrt(5)/2 eps of exact, Brent, Percival and
    Zimmermann 2007, and |cos a| + |sin a| <= sqrt(2)).  When both H+- pass,
    Re Y and tan(a) Re Y -+ Im Y are positive definite, so |Re Y_ij| and
    |Im Y_ij| / tan(a) are at most sqrt(Re Y_ii Re Y_jj); with D the
    certificate's scaling of H, the budget's spectral norm on D H D is
    then at most 6 eps (1 + tan a) sum_i Re Y_ii / H_ii, the trace of D
    Re Y D.  That takes no norm of an unscaled matrix, and the budget's
    first-order count (5.6 eps) leaves room for its own rounding and the
    certificate's (1 - gamma_4).  The first try takes every input, so it
    reads the Cartesian parts and their diagonals as they are; a later
    try takes the open inputs' rows.
    """
    re, im = cartesian_parts(np.array([info.rotation_z * X for info, X in zip(infos, mats)]))
    r = re.diagonal(axis1=-2, axis2=-1).real

    def sector_pair(ks, alphas):
        c, s = (np.array([f(a) for a in alphas])[:, None, None] for f in (math.cos, math.sin))
        if len(ks) == len(re):
            ci, sr, rk = c * im, s * re, r
        else:
            ci, sr, rk = c * im[ks], s * re[ks], r[ks]
        H = np.empty((len(ks), 2) + sr.shape[1:], dtype=sr.dtype)
        np.subtract(sr, ci, out=H[:, 0])
        np.add(sr, ci, out=H[:, 1])
        h = H.diagonal(axis1=-2, axis2=-1).real
        budget = 6.0 * _EPS * (1.0 + np.tan(alphas))[:, None] * np.add.reduce(rk[:, None] / np.where(h > 0.0, h, np.inf), -1)
        return [True if ok else None for ok in np.logical_and.reduce(pd_certificate(H, budget)[0], 1)]

    return [SectorInfo(a, info.rotation_z) for info, (a, _) in zip(infos, _inflated(infos, sector_pair))]


def _require_accretive_dissipative(mats, arity: int) -> None:
    # Im X is Re(-iX), so both parts of every input go through the
    # positive-definiteness certificate at once.
    H = np.stack(cartesian_parts(np.array(mats)), axis=1)
    passes, d, _ = pd_certificate(H)
    for k, (ok, Hk, dk) in enumerate(zip(passes, H, d)):
        if not ok.all():
            lam_re, lam_im = scaled_lambda_min(dk, Hk)
            raise Inapplicable(
                f"{_input_name(k, arity)} is not accretive-dissipative: lambda_min(D Re D) = {lam_re:.3e}, "
                f"lambda_min(D' Im D') = {lam_im:.3e} (unit-diagonal scalings D, D')"
            )


def _require_pd(X: np.ndarray, which: str) -> None:
    if not is_hermitian(X):
        raise Inapplicable(f"{which} is not Hermitian")
    A = cartesian_decompose(X)[0]
    passes, d, _ = pd_certificate(A)
    if not passes:
        lam = scaled_lambda_min(d, A)
        raise Inapplicable(f"{which} is not positive definite: lambda_min(D X D) = {lam:.3e} (unit-diagonal scaling D)")


class Hypothesis(Enum):
    """What an identifier assumes of its inputs."""

    SECTORIAL = "each input in a rotated sector class"
    ACCRETIVE = "each input accretive, no rotation"
    ACCRETIVE_DISSIPATIVE = "each input accretive-dissipative"
    PD_SECOND = "second input positive definite"
    ONE_HERMITIAN = "at least one input Hermitian"
    PSD_NOTE = "first input PSD; a violation is noted, not refused"


def _check_hypothesis(kind, mats, arity: int, proof=None) -> tuple[list[SectorInfo], str]:
    """Sector data of each input and a note, once ``kind`` holds.

    Inputs are tested in order and the first violation raises
    Inapplicable, so its note is the one reported; the sector search runs
    once per input, while the verification of its data and the
    accretive-dissipative gate take one stacked pass over all inputs.
    Only SECTORIAL and ACCRETIVE return sector data; PSD_NOTE returns a
    note instead of raising.

    ``proof``, given only by suites (_run_trials) for the drawn inputs of
    a row that _takes_proof, is the sector data that the draw proves, a
    verified SectorInfo per SECTORIAL or ACCRETIVE input and none for any
    other hypothesis (generate_inputs); the gate returns it and tests
    nothing.
    """
    if proof is not None:
        return list(proof), ""
    if kind is Hypothesis.SECTORIAL:
        return _sector_data(rotation_to_sector, mats, arity, NotSectorialError, "input is not sectorial"), ""
    if kind is Hypothesis.ACCRETIVE:
        return _sector_data(sector_index, mats, arity, ValueError, "input is not accretive sectorial"), ""
    if kind is Hypothesis.ACCRETIVE_DISSIPATIVE:
        _require_accretive_dissipative(mats, arity)
    elif kind is Hypothesis.PD_SECOND:
        _require_pd(mats[1], "second input")
    elif kind is Hypothesis.ONE_HERMITIAN:
        if not any(is_hermitian(M) for M in mats):
            raise Inapplicable("neither input is Hermitian")
    elif kind is Hypothesis.PSD_NOTE:
        if not (is_hermitian(mats[0]) and pd_certificate(cartesian_decompose(mats[0])[0])[0]):
            return [], "hypothesis violated: first factor is not PSD, bound not guaranteed"
    return [], ""


def _block_certificate(block, Y: np.ndarray, info: SectorInfo) -> tuple[Interval, Interval, str]:
    """-lambda_min(block(Y, a')) against the point 0, a' inflated from info's index until it clears 0.

    block(Y, a') >= 0 exactly when W(Y) lies in the sector of half-width a'.
    Each a' tried is above info's verified index, so an lhs wholly above 0 is
    a counterexample.  The accepting try's lhs is reported, a' in the note.
    The computed lambda_min of the m x m block B is within LAPACK_BACKWARD m
    eps ||B||_F of an exact one, and within ||B - B_0||_F more of that of the
    block B_0 of the exact Y at the float a' (Weyl).  Entrywise the computed
    Y = zX is within sqrt(5)/2 eps of exact, a Cartesian part adds half an ulp,
    the factor (tan 1 ulp, sec 1.5) and its product 1.5 more, so
    ||B - B_0||_F <= sqrt(2) (3.7 sec a' + 1.7) eps ||Y||_F < 6 (1 + sec a') eps ||Y||_F.
    A Y far from unit size is first scaled by the power of two 2^-e that
    linalg.as_scaled_stack picks, so that neither norm overflows; block
    and pad scale with Y, and the accepted lhs is scaled back by 2^e with
    Interval.scale, which rounds each end outward.
    """
    (Y,), far = as_scaled_stack(Y)

    def clears_zero(ks, alphas):
        B = block(Y, alphas[0])
        pad = (LAPACK_BACKWARD * len(B) * frobenius(B) + 6.0 * (1.0 + 1.0 / math.cos(alphas[0])) * frobenius(Y)) * _EPS
        lhs = Interval.point(-float(np.linalg.eigvalsh(B)[0]), abs_=pad)
        return [None if lhs.lo <= 0.0 <= lhs.hi else lhs]

    ((a, lhs),) = _inflated([info], clears_zero)
    if far:
        lhs = lhs.scale(math.ldexp(1.0, far[0]))
    held = "PSD" if lhs.hi < 0.0 else "not PSD"
    return lhs, Interval(0.0, 0.0), f"block {held} at index {a!r}: lhs is -lambda_min(block(zX, a)), rhs 0"


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

    A check computes every Omega term of its plan in one omega_n call per
    pass (_certify) before either side is evaluated.
    """

    of: object


@dataclass(frozen=True)
class Norm:
    of: object

    def interval(self, ev):
        return _norm_iv(ev.spec, ev.matrix(self.of))


# Error model of the scalar terms below.  Each is one library call and at
# most two roundings of exact operands: the sector index is the float
# whose sector was verified, and a diagonal entry is an input entry.
# libm's cos, tan, pow and hypot are taken to be within 1 ulp and each
# further rounding within half an ulp, so a relative pad of 2 eps covers
# every term; Interval.point rounds one more ulp outward.


@dataclass(frozen=True)
class Sec:
    """sec of the verified index of input ``of`` (or of MAX).

    One cos (1 ulp) and one division (half an ulp): within 1.5 eps
    relative, padded by 2 eps.
    """

    of: object  # input index or MAX

    def interval(self, ev):
        return Interval.point(1.0 / math.cos(ev.alpha(self.of)), rel=2.0 * _EPS)


@dataclass(frozen=True)
class Tan:
    """tan of the verified index: one tan (1 ulp), padded by 2 eps relative."""

    of: object

    def interval(self, ev):
        return Interval.point(math.tan(ev.alpha(self.of)), rel=2.0 * _EPS)


@dataclass(frozen=True)
class OnePlusTan:
    """1 + tan of the verified index.

    One tan (1 ulp of tan >= 0) and one sum (half an ulp): within 1.5 eps
    of 1 + tan, padded by 2 eps relative.
    """

    of: object

    def interval(self, ev):
        return Interval.point(1.0 + math.tan(ev.alpha(self.of)), rel=2.0 * _EPS)


@dataclass(frozen=True)
class DiagAbsMax:
    """Largest modulus of a diagonal entry of input ``of``.

    Each modulus is one complex abs, that is a hypot (1 ulp), and the
    maximum is exact: padded by 2 eps relative.
    """

    of: int

    def interval(self, ev):
        return Interval.point(float(np.max(np.abs(np.diag(ev.matrix(self.of))))), rel=2.0 * _EPS)


@dataclass(frozen=True)
class DiagReMax:
    """Largest real part of a diagonal entry of input ``of``: an input entry, exact, so unpadded."""

    of: int

    def interval(self, ev):
        return Interval.point(float(np.max(np.diag(ev.matrix(self.of)).real)))


@dataclass(frozen=True)
class Const:
    """base^(per_input * m) for m inputs.

    per_input * m is exact for the dyadic per_input of the registry, so
    the term is one pow (1 ulp), padded by 2 eps relative.
    """

    base: float
    per_input: float

    def interval(self, ev):
        return Interval.point(self.base ** (self.per_input * len(ev.mats)), rel=2.0 * _EPS)


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

    def written(self, m: int) -> list:
        return [self.term(k) if isinstance(self.term, type) else self.term for k in range(m)]


class _Evaluator:
    """The inputs, sector data, product and norm of one check, and its derived matrices, each formed once."""

    def __init__(self, mats, infos, product, spec: NormSpec):
        self.mats = mats
        self.infos = infos
        self.product = product
        self.spec = spec
        self._matrices = {}

    def matrix(self, of) -> np.ndarray:
        if isinstance(of, int):
            return self.mats[of]
        if of not in self._matrices:
            self._matrices[of] = reduce(self.product, self.mats) if of == PRODUCT else of.matrix(self)
        return self._matrices[of]

    def alpha(self, of) -> float:
        if of == MAX:
            return max(info.index_alpha for info in self.infos)
        return self.infos[of].index_alpha


def _expand(expr, m: int, terms: dict):
    """``expr`` with every Each written out for m inputs; its terms join ``terms`` in the order _side first uses them."""
    if isinstance(expr, tuple):
        factors = [g for f in expr for g in (f.written(m) if isinstance(f, Each) else (f,))]
        return tuple(_expand(f, m, terms) for f in factors)
    if isinstance(expr, Scale):
        return Scale(expr.c, _expand(expr.of, m, terms))
    if isinstance(expr, Min):
        return Min(_expand(expr.a, m, terms), _expand(expr.b, m, terms))
    terms[expr] = None
    return expr


def _side(expr, values: dict) -> Interval:
    """A written-out side from the interval of each of its terms; a tuple multiplies strictly left to right."""
    if isinstance(expr, tuple):
        return reduce(operator.mul, [_side(f, values) for f in expr])
    if isinstance(expr, Scale):
        return _side(expr.of, values).scale(expr.c)
    if isinstance(expr, Min):
        return Interval.min_of(_side(expr.a, values), _side(expr.b, values))
    return values[expr]


# --- registry -------------------------------------------------------------


@dataclass(frozen=True)
class IdInfo:
    """One identifier as data: its inputs, its hypothesis and both sides.

    ``requires`` is checked before anything else, and suites draw inputs
    that satisfy it (generate_inputs); with ``common_index`` they draw one
    sector index for all inputs, as rows that take the MAX index state.
    ``product`` combines the inputs into PRODUCT (np.matmul, hadamard or
    None).  A row with ``block`` certifies block(zX, a') against 0 in place
    of lhs <= rhs, at the index a' that its note states.
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
# Each id's registry position, which orders a suite's ids and tags its seeds.
_POSITION = {ineq: k for k, ineq in enumerate(REGISTRY)}


def all_ids() -> list[InequalityId]:
    return list(REGISTRY.keys())


def _tight(ctx: CheckContext) -> tuple[tuple[int, float], ...]:
    """The one radius pass of a tight check: grid 32 (radius.DEFAULT_GRID) at ctx.refine_tol."""
    return ((ctx.grid, ctx.refine_tol),)


@lru_cache(maxsize=8)
def _passes(ctx: CheckContext) -> tuple[tuple[int, float], ...]:
    """The (grid, radius tolerance) passes of a suite check: the coarse rungs, then _tight(ctx).

    (4, 1.0) gives each radius its Cartesian bracket and (8, 0.2) its
    grid-8 interval; a rung whose tolerance is not above ctx.refine_tol
    is left out, since it would certify no looser than the tight pass.
    """
    return tuple(rung for rung in _COARSE_PASSES if rung[1] > ctx.refine_tol) + _tight(ctx)


def _plan(info: IdInfo, m: int) -> tuple:
    """(lhs, rhs, omegas, others) of ``info`` for m inputs, written out once per (id, m).

    The sides have every Each written out; omegas and others are their
    distinct Omega terms and other terms, each in first-use order.
    """
    key = (info.id, m)
    if key not in _PLANS:
        terms = {}
        lhs, rhs = _expand(info.lhs, m, terms), _expand(info.rhs, m, terms)
        omegas = tuple(t for t in terms if isinstance(t, Omega))
        _PLANS[key] = (lhs, rhs, omegas, tuple(t for t in terms if not isinstance(t, Omega)))
    return _PLANS[key]


def check_inequality(
    id: InequalityId | str,
    inputs,
    norm: NormSpec = OPERATOR,
    *,
    context: CheckContext = DEFAULT_CONTEXT,
    seed: int | None = None,
) -> CheckResult:
    """Evaluate one inequality on explicit inputs with certified intervals.

    Every radius is certified to ``context.refine_tol``.  Inputs whose
    matrix properties violate the identifier's hypotheses (except for
    I_diag_psd, which evaluates regardless so that necessity of its
    hypothesis can be demonstrated) yield verdict "inapplicable".
    Wrong arity or mismatched dimensions raise instead: those are caller
    errors, not data properties, as is a ``norm`` that is not a NormSpec.
    """
    if not isinstance(norm, NormSpec):
        raise ValueError(f"norm must be a NormSpec, got {norm!r}")
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
    return _certify(info, mats, norm, seed, _tight(context))


def _certify(info: IdInfo, mats, norm: NormSpec, seed, passes, proof=None) -> CheckResult:
    """One check of ``info`` on ``mats``, its radii certified by the first of ``passes``.

    ``mats`` are complex128 matrices with finite entries, as many as the
    row takes and all of one size: check_inequality validates explicit
    inputs, and generate_inputs' own need no validation.  After the gate
    (_check_hypothesis, given ``proof``) a block row takes its certificate;
    any other computes its plan's terms (_plan) but the radii once, then
    per (grid, refine_tol) pass all radii in one omega_n call and both
    sides.  While the sides do not separate, each further pass recomputes
    the radii alone, so the last pass gives the bits of a check run at its
    grid and tolerance only.  A hypothesis that the gate or the block
    certificate refutes makes the result inapplicable.
    """
    n = mats[0].shape[0]
    spec = OPERATOR if info.classical else norm
    try:
        infos, note = _check_hypothesis(info.requires, mats, info.arity, proof)
        if info.block is not None:
            lhs, rhs, note = _block_certificate(info.block, infos[_X].rotation_z * mats[_X], infos[_X])
        else:
            ev = _Evaluator(mats, infos, info.product, spec)
            left, right, omegas, others = _plan(info, len(mats))
            values = {term: term.interval(ev) for term in others}
            radii = [ev.matrix(term.of) for term in omegas]
            for grid, tol in passes:
                if omegas:
                    ests = omega_n(spec, *radii, grid=grid, refine_tol=tol)
                    for term, est in zip(omegas, ests if len(radii) > 1 else (ests,)):
                        values[term] = Interval(est.value, math.nextafter(est.value + est.cert_error, math.inf))
                lhs, rhs = _side(left, values), _side(right, values)
                if not omegas or classify(lhs, rhs) in _SETTLED:
                    break
    except Inapplicable as exc:
        return CheckResult.inapplicable(info.id, str(exc), seed=seed, norm=spec.label, dim=n)
    return CheckResult.from_comparison(info.id, lhs, rhs, seed=seed, norm=spec.label, dim=n, note=note)


# --- input generation ------------------------------------------------------
#
# Suites draw each row's inputs from its hypothesis.  Input j comes from the
# generator seed mix_seed(seed, j + 1).  A sector draw takes its indices
# and then a SECTORIAL draw its rotation phases from one stream,
# mix_seed(seed, 31): one index per input, or one for every input of a
# common_index row, then one phase per input.  An ACCRETIVE draw is not
# rotated, and the phases are the stream's tail, so it stops at the indices.

_ALPHA_MAX = 1.4
_ANGLE_TAG = 31


def _angles(streams: Streams, seed: int, count: int, info: IdInfo) -> list[list[float]]:
    """The sector indices, uniform on [0, _ALPHA_MAX), of a trial's ``count`` inputs, and for a SECTORIAL row their rotation phases, uniform on [0, 2 pi)."""
    k = 1 if info.common_index else count
    phases = count if info.requires is Hypothesis.SECTORIAL else 0
    u = streams.rng(mix_seed(seed, _ANGLE_TAG)).random(k + phases)
    alphas = (_ALPHA_MAX * u[:k]).tolist() * (count // k)
    return [alphas, (2.0 * math.pi * u[k:]).tolist()] if phases else [alphas]


def _accretive(streams: Streams, n: int, seeds, alphas):
    """Accretive inputs, each claimed at index max(hi, -lo) with z = 1.

    W(X) spans the arguments [lo, hi] (generator._exact_sectorial), so
    the index is the larger of their moduli, the draw's alpha to the
    tilts' rounding.
    """
    X, lo, hi = _exact_sectorial(streams, n, seeds, alphas)
    return X, [SectorInfo(max(h, -l), complex(1.0, 0.0)) for l, h in zip(lo.tolist(), hi.tolist())]


def _rotated(streams: Streams, n: int, seeds, alphas, phases):
    """Accretive inputs turned by e^{i phi}, each claimed at the bisector of its arc.

    W(X) spans the arguments [lo, hi] (generator._exact_sectorial, turned
    by the rounded e^{i phi}), so z = e^{-i (lo + hi)/2} turns it onto the
    positive axis with half-width (hi - lo)/2, the minimal index.
    """
    X, lo, hi = _exact_sectorial(streams, n, seeds, alphas, phases)
    claims = [SectorInfo((h - l) / 2.0, cmath.exp(-0.5j * (h + l))) for l, h in zip(lo.tolist(), hi.tolist())]
    return X, claims


def _hermitian_draw(streams: Streams, n: int, seeds) -> np.ndarray:
    """(G + G*)/2 of a scale-1 Ginibre draw (generator._hermitian_part): Hermitian bit for bit, entries ij and ji taking the same sums."""
    return _hermitian_part(_ginibre(streams, n, seeds))


# The draw of each input position, or one draw for every input.  A sector
# draw also takes the trial's angles (_angles) and returns its claims.
_DRAWS = {
    None: _ginibre,
    Hypothesis.PSD_NOTE: (_pd, _ginibre),
    Hypothesis.PD_SECOND: (_ginibre, _pd),
    Hypothesis.ONE_HERMITIAN: (_ginibre, _hermitian_draw),
    Hypothesis.SECTORIAL: _rotated,
    Hypothesis.ACCRETIVE: _accretive,
    Hypothesis.ACCRETIVE_DISSIPATIVE: _accretive_dissipative,
}


class _Inputs(list):
    """The inputs of one trial, with the draw's ``claims`` and ``proof``.

    ``claims`` holds each SECTORIAL or ACCRETIVE input's witness, the
    index and rotation of the exact draw to a few ulps, and is None for
    other rows.  ``proof`` is what the gate would certify, proven by the
    construction instead: each claim at its index + _ALPHA_INFLATION, or
    no sector data for any other row, whose draw satisfies its hypothesis
    exactly.  Both ride on generate_inputs' list, so that suites draw
    through generate_inputs as every other caller does (and as the
    benchmark's tracer sees the generator layer).
    """

    claims: list[SectorInfo] | None
    proof: list[SectorInfo]


def generate_inputs(info: IdInfo, n: int, seed: int, m_fold: int = 3) -> list[np.ndarray]:
    """Deterministic inputs for one trial of ``info``, drawn to satisfy its hypothesis.

    n and seed are validated once, as GenConfig validates them, and the
    draws take the inputs' integer seeds.  A row with one draw for every
    input draws them all as one stack; every Philox stream comes from the
    thread's one re-keyed bit generator.  The list's ``claims`` holds each
    SECTORIAL or ACCRETIVE input's sector witness as the draw knows it,
    index and rotation, and is None for other rows; its ``proof`` is the
    sector data that the construction proves (_Inputs).  The matrices
    carry no trace of either.  run_suite accepts the proof in place of the
    gate (_takes_proof).
    """
    cfg = GenConfig(n, seed)
    n, seed = cfg.n, cfg.seed
    draws = _DRAWS[info.requires]
    streams = _local_streams()
    count = info.arity or m_fold
    seeds = [mix_seed(seed, j + 1) for j in range(count)]
    claims = None
    if isinstance(draws, tuple):
        inputs = _Inputs([draw(streams, n, [input_seed])[0] for draw, input_seed in zip(draws, seeds)])
    elif info.requires in (Hypothesis.SECTORIAL, Hypothesis.ACCRETIVE):
        X, claims = draws(streams, n, seeds, *_angles(streams, seed, count, info))
        inputs = _Inputs(X)
    else:
        inputs = _Inputs(draws(streams, n, seeds))
    inputs.claims = claims
    inputs.proof = [] if claims is None else [SectorInfo(c.index_alpha + _ALPHA_INFLATION, c.rotation_z) for c in claims]
    return inputs


# --- suite runner -----------------------------------------------------------


def _normalize_ids(ids) -> list[InequalityId]:
    if ids == "all" or ids is None:
        return all_ids()
    wanted = {InequalityId(i) for i in ([ids] if isinstance(ids, str) else ids)}
    if not wanted:
        raise ValueError("empty id set")
    return sorted(wanted, key=_POSITION.__getitem__)  # registry order, no duplicates


def _takes_proof(info: IdInfo) -> bool:
    """Whether suite checks of ``info`` accept the draw's proof in place of the gate.

    Every row but the one-input sectorial rows does.  A claim's index,
    inflated by _ALPHA_INFLATION, is what _verified's first try returns
    for it, and it enters only a term (sec, tan, 1 + tan); the inflation
    covers the few ulps of the claim's arctangents and of its float
    rotation z, so W(zX) lies in the sector without a test.  A one-input
    row, L1-L3, P2 or P3, checks a matrix of the rotated zX itself, so it
    keeps the search and the bits check_inequality gives; that also keeps
    rotation_to_sector running end to end on suite draws.
    """
    return info.arity != 1 or info.requires is not Hypothesis.SECTORIAL


def _run_trials(tagged, trials: int, dims, norms, seed: int, context: CheckContext, passes):
    """Seeded checks of each (id, seed tag) pair of ``tagged``, and a summary per id.

    Trial t of an id uses dimension dims[t mod len(dims)], norm
    norms[(t div len(dims)) mod len(norms)] and seed mix_seed(seed, tag, t),
    so every dimension/norm combination is exercised.  Each check is
    _certify's on the matrices that generate_inputs draws, as they are:
    radii certified by ``passes``, and the gate of a row that _takes_proof
    accepting the draw's proof.
    """
    results = []
    for ineq, tag in tagged:
        info = REGISTRY[ineq]
        for t in range(trials):
            dim = dims[t % len(dims)]
            norm = norms[(t // len(dims)) % len(norms)]
            tseed = mix_seed(seed, tag, t)
            mats = generate_inputs(info, dim, tseed, context.m_fold)
            proof = mats.proof if _takes_proof(info) else None
            results.append(_certify(info, mats, norm, tseed, passes, proof))
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

    ``ids`` is "all", one id, or an iterable of ids.  Per identifier,
    ``trials`` independent inputs are generated and checked as _run_trials
    describes.  Each check certifies its radii pass by pass (_passes):
    first each radius's Cartesian bracket, [max(N(Re X), N(Im X)),
    hypot(N(Re X), N(Im X))] from one eigvalsh of 2 samples per general
    radius, which settles nearly every verdict; while its sides overlap,
    then on a start grid of 8 cells to 0.2, and last on grid 32
    (radius.DEFAULT_GRID) to ``context.refine_tol``, which reports the
    bits check_inequality gives from the same sector data.  A suite
    sectorial check of several inputs takes the sector data that its
    draw proves instead of searching for them (_takes_proof), so its sec
    and tan factors can differ from check_inequality's in the last bits:
    its index is the draw's exact one within rounding, where the search's
    comes out slightly wide.  A rung whose tolerance is not above
    ``context.refine_tol`` is skipped.  A reported interval is therefore
    an enclosure whose width is set by the pass that settled it;
    check_inequality gives tight intervals for any one result.  The
    report is a deterministic function of the arguments (wall time
    aside).  ``trials``, each of ``dims`` and ``seed`` are Python or
    numpy integers, not bools, and are recorded as Python ints, and
    ``norms`` holds NormSpec values; anything else raises ValueError
    before any check runs.
    """
    id_list = _normalize_ids(ids)
    trials = _integer("trials", trials, 1)
    dims = [_integer("dims", d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive integers, got {dims}")
    norm_list = list(norms)
    if not norm_list or not all(isinstance(n, NormSpec) for n in norm_list):
        raise ValueError(f"norms must be a nonempty list of NormSpec values, got {norms!r}")
    seed = _integer("seed", seed)

    # An id's tag is its registry position, so its trials draw the same
    # inputs whichever other ids run beside it.
    tagged = [(ineq, 1000 + _POSITION[ineq]) for ineq in id_list]
    start = time.perf_counter()
    results, per_id = _run_trials(tagged, trials, dims, norm_list, seed, context, _passes(context))
    wall = time.perf_counter() - start
    config = {
        "ids": [i.value for i in id_list],
        "trials": trials,
        "dims": dims,
        "norms": [n.label for n in norm_list],
        "seed": seed,
        "refine_tol": context.refine_tol,
        "coarse_passes": _COARSE_PASSES,
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
    """Maximum lhs/rhs ratio over random inputs plus extremal fixtures.

    Every radius is certified to ``context.refine_tol``, so the ratios
    are as tight as check_inequality's.  ``trials`` and ``seed`` are
    integers as run_suite takes them.
    """
    ineq = InequalityId(id)
    info = REGISTRY[ineq]
    if info.block is not None:
        raise ValueError(f"{ineq.value} is a positivity check, not a two-sided comparison")
    trials = _integer("trials", trials)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    seed = _integer("seed", seed)
    dims = (2, 3, 4)
    results, per_id = _run_trials([(ineq, 77)], trials, dims, DEFAULT_NORMS, seed, context, _tight(context))
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
