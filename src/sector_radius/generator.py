"""Seeded random matrix factories for the structured inputs the checks need.

Randomness comes from the counter-based Philox bit generator keyed by a
64-bit seed, with Gaussians produced by the polar Box-Muller transform
from explicit uniforms.  Identical configurations therefore reproduce
identical matrices across runs, and derived streams (seed mixed with a
tag via a splitmix64 finalizer) keep independent draws decoupled.

The positive definite and accretive-dissipative factories and the
suites' sectorial draw (_exact_sectorial) are exact: each matrix is a
congruence G diag(d) G* of short dyadics, formed in floating point
without a rounding error, so the stored matrix is the one whose
properties the construction proves.
- G is a Ginibre draw with each real and imaginary part rounded to b
  fractional bits and clipped to |part| <= 4 - 2^-b, so |G_ij G_kj| < 2^5.
- d_j is 1 for a positive definite draw.  For a sectorial one it is (c +
  is)(1 + i t_j), with the tilt t_j rounded to 12 fractional bits, |t_j|
  <= 7, and the turn (c, s) = (cos phi, sin phi) rounded to 8, so d_j is
  a multiple of 2^-20 with |d_j| <= (1 + 2^-8.5) sqrt(50) < 2^3.
- Each product G_ij d_j is exact (at most b + 26 significant bits), so
  every real product in an entry of (G diag(d)) G* is a multiple of q =
  2^-(2b + 20) below 2^8, and every partial sum of an entry is one below
  n 2^10: at most n 2^8 for a product summed term by term, in any order
  and with any fused multiply-adds, and 3 n 2^8 for a 3M (Karatsuba)
  complex product.  A multiple of q of modulus at most 2^53 q is a
  double, so no partial sum rounds (Higham, Accuracy and Stability of
  Numerical Algorithms, 2nd ed., section 3.5) when ceil(log2 n) + 10 +
  2b + 20 <= 53.  b is the largest such b >= 0 (_fraction_bits): 11 at n
  <= 2, 10 at n <= 8, 9 at n <= 32 and 8 at n <= 64; a draw raises
  ValueError where there is none (n > 2^23) or a tilt exceeds 7.
  Exactness also makes the bits independent of the BLAS and its thread
  count.
- A positive definite draw is P = G G* + 2^-20 I, exactly Hermitian with
  lambda_min(P) >= 2^-20.  An accretive-dissipative draw is P + iQ for
  two of them: both sums are exact, so Re X = P and Im X = Q.  A
  sectorial draw X = (c + is) G (I + i diag(t)) G* has <Xx, x> = (c + is)
  sum_j (1 + i t_j) |(G* x)_j|^2, so W(X) lies in the closed sector of
  arguments arg(c + is) + [arctan min t, arctan max t] and reaches both
  ends when G is nonsingular (every sectorial matrix is such a
  congruence: Zhang, Linear Multilinear Algebra 63, 2015).
Every private draw is made at scale 1 (_ginibre).  random_ginibre and
random_sectorial multiply G by the scale, random_pd and
random_accretive_dissipative their draw by fl(scale^2).  For a
power-of-two scale that is exact, and the proof stands.  For another
scale each entry is rounded once, relative error at most 2^-53: a
Hermitian part stays exactly Hermitian and, for n < 2^13, positive
definite, since the rounding's norm, at most 2^-53 scale^2 ||X||_F <=
2^-53 scale^2 (64 n^2 + 2), is below the shift 2^-20 scale^2.
random_sectorial is not exact: its index is alpha to rounding for any
alpha < pi/2, finer than a 12-bit tilt resolves, so it keeps a float
construction (_sectorial_draw).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import _SAFE_HI, adjoint, as_matrix
from .sectorial import _check_alpha

__all__ = [
    "GenConfig",
    "Streams",
    "mix_seed",
    "random_ginibre",
    "random_pd",
    "random_sectorial",
    "random_accretive_dissipative",
    "random_unitary",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
# splitmix64 constants (Steele, Lea, Flood 2014), also used to fold tags.
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream tags for derived seeds inside composite factories.
_STREAM_PD = 0x5D
_STREAM_SECT_BASE = 0xA1
_STREAM_SECT_TILT = 0xA2
_STREAM_AD_RE = 0xC1
_STREAM_AD_IM = 0xC2
_STREAM_UNITARY = 0xE7

# The exact draws (module docstring): |parts of G| <= 4 - 2^-b, the
# fractional bits of a tilt and of a turn, the largest tilt, and the
# positive definite shift.
_G_LIMIT = 4
_TILT_BITS = 12
_TURN_BITS = 8
_TILT_MAX = 7.0
_SHIFT = 2.0**-20


def mix_seed(seed: int, *tags: int) -> int:
    """Derive a decorrelated 64-bit seed from a base seed and integer tags."""
    x = seed & _MASK64
    for t in tags:
        x = (x + _GOLDEN64 * ((t & _MASK64) + 1)) & _MASK64
        x ^= x >> 30
        x = (x * _MIX1) & _MASK64
        x ^= x >> 27
        x = (x * _MIX2) & _MASK64
        x ^= x >> 31
    return x


@dataclass(frozen=True)
class GenConfig:
    """Factory configuration: dimension, 64-bit seed, overall scale.

    n and seed are integers other than bools (a numpy integer is stored as
    an int), and scale, not a bool either, lies in [2^-256, 2^256],
    linalg's safe range: there a draw's products G G* neither overflow nor
    leave the normal range.  scale is stored as a Python float.
    """

    n: int
    seed: int
    scale: float = 1.0

    def __post_init__(self):
        for name in ("n", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                # A numpy integer would make mix_seed's arithmetic wrap or overflow.
                object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if type(self.scale) in (bool, np.bool_):
            raise ValueError(f"scale must be a number, not a bool, got {self.scale!r}")
        if not (0 < self.scale < math.inf):
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")
        # A numpy float32 would take the range test and the draws' products
        # in its own precision.
        object.__setattr__(self, "scale", float(self.scale))
        if not (1.0 / _SAFE_HI <= self.scale <= _SAFE_HI):
            raise ValueError(f"scale must lie in [2^-256, 2^256], got {self.scale!r}")


class Streams:
    """Philox streams keyed by 64-bit seeds, drawn from one bit generator.

    ``rng(key)`` re-keys the bit generator through its ``state`` and
    returns a Generator whose draws are bit for bit those of a fresh
    ``Generator(Philox(key=key))``, at about a sixth of the cost of building
    one.  A Generator it returns is valid until the next ``rng`` call.
    The bit generator starts from the fixed seed 0, which draws no OS
    entropy; ``rng`` restores that start state (a zero counter, an empty
    buffer) with the key replaced.  A thread builds its Streams at its
    first draw, so importing the package does not import numpy.random.
    """

    def __init__(self):
        self._bits = np.random.Philox(0)
        self._rng = np.random.Generator(self._bits)
        self._key = np.zeros(2, dtype=np.uint64)
        fresh = self._bits.state
        self._fresh = {**fresh, "state": {**fresh["state"], "key": self._key}}

    def rng(self, key: int) -> np.random.Generator:
        self._key[0] = key & _MASK64
        self._bits.state = self._fresh
        return self._rng


_LOCAL = threading.local()


def _local_streams() -> Streams:
    """This thread's Streams, built on its first draw.

    ``rng(key)`` sets the whole Philox state, so what a Streams drew
    before never shows in a draw; one per thread keeps two threads from
    re-keying one bit generator under each other.
    """
    try:
        return _LOCAL.streams
    except AttributeError:
        _LOCAL.streams = Streams()
        return _LOCAL.streams


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of each matrix of a stack: linalg.cartesian_parts' real part, bit for bit, without its skew part."""
    return (M + adjoint(M)) / 2


# Every private draw below makes a stack at scale 1, one matrix per seed
# from its own Philox stream, with one Box-Muller transform and one batched
# product per step, so each matrix is bit for bit its seed's draw alone.
# The suites (harness.generate_inputs, checked by harness._certify) hand
# them all of a check's seeds at once; a public factory draws a stack of
# one and applies its GenConfig's scale.


def _ginibre(streams: Streams, n: int, seeds) -> np.ndarray:
    """Matrices of i.i.d. standard complex Gaussian entries, one per seed, at scale 1.

    Polar Box-Muller: sqrt(-log u1) * exp(2*pi*i*u2) is standard complex
    Gaussian (E|z|^2 = 1), with u1 shifted into (0, 1] so the log is
    finite; each stream gives its n^2 values of u1, then its n^2 of u2.
    """
    count = n * n
    u = np.array([streams.rng(seed).random(2 * count) for seed in seeds])
    z = np.sqrt(-np.log(1.0 - u[:, :count])) * np.exp(2j * np.pi * u[:, count:])
    return z.reshape(-1, n, n)


def _fraction_bits(n: int) -> int:
    """Fractional bits b of each part of an exact draw's G at dimension n (module docstring).

    The largest b >= 0 with ceil(log2 n) + 10 + 2b + 20 <= 53; ValueError
    when there is none.  One integer test, made before anything is drawn.
    """
    bits = (53 - 30 - (n - 1).bit_length()) // 2
    if bits < 0:
        raise ValueError(f"no exact draw at n = {n}: its products need n <= 2^23")
    return bits


def _dyadic(Z: np.ndarray, bits: int, limit: int | None = None) -> np.ndarray:
    """Z, a C-contiguous complex stack, with each part rounded to a multiple of 2^-bits.

    With ``limit`` each part is then clipped to |part| <= limit - 2^-bits.
    Scaling by a power of two, rint and the clip are exact.
    """
    parts = np.rint(Z.view(np.float64) * 2.0**bits)
    if limit is not None:
        top = limit * 2**bits - 1
        np.clip(parts, -top, top, out=parts)
    return (parts * 2.0**-bits).view(np.complex128)


def _exact_ginibre(streams: Streams, n: int, seeds) -> np.ndarray:
    """The G of an exact draw: a scale-1 Ginibre draw per seed, rounded as the module docstring states."""
    bits = _fraction_bits(n)
    return _dyadic(_ginibre(streams, n, seeds), bits, _G_LIMIT)


def _scaled(X: np.ndarray, cfg: GenConfig) -> np.ndarray:
    """A scale-1 draw times fl(cfg.scale^2): exact for a power-of-two scale."""
    square = cfg.scale**2
    return X if square == 1.0 else X * square


def _pd(streams: Streams, n: int, seeds) -> np.ndarray:
    """Hermitian positive definite matrices G G* + 2^-20 I, one per seed, formed exactly (module docstring); nothing factors or solves."""
    G = _exact_ginibre(streams, n, [mix_seed(seed, _STREAM_PD) for seed in seeds])
    P = G @ adjoint(G)
    diagonal = np.arange(n)
    P[:, diagonal, diagonal] += _SHIFT
    return P


def _sectorial_draw(streams: Streams, n: int, seeds, scales, alphas) -> np.ndarray:
    """random_sectorial's matrices, one per seed, scale and alpha (a float in [0, pi/2)).

    G is the scale-1 _ginibre draw of the seed's base stream times its
    scale, and t is _tilts.  X is one broadcast product of the stack (G,
    G diag(t)) against G* and one Hermitian part; no numpy.linalg routine
    runs.  The arguments of W(X) span exactly [arctan min t, arctan max t]
    for the exact product of the float G and t, which the float X
    approximates (unlike _exact_sectorial, this draw rounds).
    """
    G = np.array(scales)[:, None, None] * _ginibre(streams, n, [mix_seed(seed, _STREAM_SECT_BASE) for seed in seeds])
    t = _tilts(streams, n, seeds, alphas)
    H = _hermitian_part(np.stack((G, G * t[:, None, :])) @ adjoint(G))
    return H[0] + 1j * H[1]


def _tilts(streams: Streams, n: int, seeds, alphas) -> np.ndarray:
    """Each seed's tilt vector: n uniforms u of its tilt stream mapped to 2u - 1 and scaled to max|t_j| = tan(alpha).

    A t of zeros becomes ones, which has a direction to scale.
    """
    t = 2.0 * np.array([streams.rng(mix_seed(seed, _STREAM_SECT_TILT)).random(n) for seed in seeds]) - 1.0
    peaks = np.max(np.abs(t), axis=-1)
    if not peaks.all():
        zero = peaks == 0.0
        t[zero] = 1.0
        peaks[zero] = 1.0
    t *= (np.array([math.tan(alpha) for alpha in alphas]) / peaks)[:, None]
    return t


def _exact_sectorial(streams: Streams, n: int, seeds, alphas, phases=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact sectorial draws (c + is) G (I + i diag(t)) G* at scale 1, and the arguments [lo, hi] that each W(X) spans.

    G and t come from the streams of _sectorial_draw: G from the base
    stream, rounded as the module docstring states, and t = _tilts
    rounded to 12 fractional bits; ValueError when a tilt then exceeds 7
    (an alpha above about arctan 7 = 1.43).  (c, s) is (cos phi, sin phi) for each of ``phases`` rounded to
    8 fractional bits, or (1, 0) when ``phases`` is None.  d_j = (c +
    is)(1 + i t_j) is exact, and X = (G diag(d)) G* is one exact product
    (module docstring), with no Hermitian part and no turn of its own;
    no numpy.linalg routine runs.  lo and hi are arg(c + is) + arctan min
    t and + arctan max t, each within a few ulps; an arc of W(X) is
    narrower than pi, since |arctan t_j| < pi/2.
    """
    G = _exact_ginibre(streams, n, [mix_seed(seed, _STREAM_SECT_BASE) for seed in seeds])
    t = np.rint(_tilts(streams, n, seeds, alphas) * 2.0**_TILT_BITS) * 2.0**-_TILT_BITS
    if not np.abs(t).max() <= _TILT_MAX:
        raise ValueError(f"no exact sectorial draw with a tilt above {_TILT_MAX}: alpha must be at most about arctan(7)")
    d = 1.0 + 1j * t
    lo, hi = np.arctan(t.min(axis=-1)), np.arctan(t.max(axis=-1))
    if phases is not None:
        turns = _dyadic(np.exp(1j * np.array(phases)), _TURN_BITS)
        d *= turns[:, None]
        lo += np.angle(turns)
        hi += np.angle(turns)
    return (G * d[:, None, :]) @ adjoint(G), lo, hi


def _accretive_dissipative(streams: Streams, n: int, seeds) -> np.ndarray:
    """Matrices P + iQ, one per seed, with independent positive definite P and Q drawn as _pd draws them; P + iQ is exact."""
    tags = (_STREAM_AD_RE, _STREAM_AD_IM)
    P = _pd(streams, n, [mix_seed(seed, tag) for seed in seeds for tag in tags])
    return P[0::2] + 1j * P[1::2]


def random_ginibre(cfg: GenConfig) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries, the scale-1 draw of _ginibre times cfg.scale."""
    return cfg.scale * _ginibre(_local_streams(), cfg.n, [cfg.seed])[0]


def random_pd(cfg: GenConfig) -> np.ndarray:
    """Hermitian positive definite matrix scale^2 (G G* + 2^-20 I) (see _pd)."""
    return _scaled(_pd(_local_streams(), cfg.n, [cfg.seed])[0], cfg)


def random_sectorial(cfg: GenConfig, alpha: float) -> np.ndarray:
    """Accretive matrix whose numerical range has angular half-width ``alpha``, in [0, pi/2).

    It is the congruence G (I + i diag(t)) G* of a Ginibre matrix G and a
    real tilt vector t of n i.i.d. uniforms on [-1, 1), rescaled so that
    max|t_j| = tan(alpha), formed as G G* + i G diag(t) G* with both parts
    made exactly Hermitian (_sectorial_draw).  Quadratic forms satisfy
    <Xx,x> = ||y||^2 + i sum_j t_j |y_j|^2 with y = G*x, and G* is
    invertible, so the arguments over the numerical range span exactly
    [arctan min t, arctan max t], and the extreme one is arctan(max|t_j|)
    = alpha.  Every sectorial matrix is such a congruence T diag(e^{i
    theta_j}) T* with |theta_j| <= alpha (Zhang, "A matrix decomposition
    and its applications", Linear Multilinear Algebra 63, 2015).  A
    Hermitian tilt would need no more: G (I + i U diag(t) U*) G* = GU (I +
    i diag(t)) (GU)* for unitary U, and GU is again Ginibre, as G's law is
    unitarily invariant, so only the tilt's spectrum matters to the law,
    and it is drawn directly.  An alpha of 0 makes t = 0 and gives the
    positive definite G G* itself.
    """
    alpha = _check_alpha(alpha)
    return _sectorial_draw(_local_streams(), cfg.n, [cfg.seed], [cfg.scale], [alpha])[0]


def random_accretive_dissipative(cfg: GenConfig) -> np.ndarray:
    """Matrix scale^2 (P + iQ) with independent positive definite P and Q (see _accretive_dissipative)."""
    return _scaled(_accretive_dissipative(_local_streams(), cfg.n, [cfg.seed])[0], cfg)


def random_unitary(cfg: GenConfig) -> np.ndarray:
    """Haar-like unitary from QR of a Ginibre draw with phase-fixed R."""
    G = _ginibre(_local_streams(), cfg.n, [mix_seed(cfg.seed, _STREAM_UNITARY)])[0]
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return as_matrix(Q * phases[np.newaxis, :])
