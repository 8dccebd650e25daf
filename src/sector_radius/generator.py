"""Seeded random matrix factories for the structured inputs the checks need.

Randomness comes from the counter-based Philox bit generator keyed by a
64-bit seed, with Gaussians produced by the polar Box-Muller transform
from explicit uniforms.  Identical configurations therefore reproduce
identical matrices across runs, and derived streams (seed mixed with a
tag via a splitmix64 finalizer) keep independent draws decoupled.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import _SAFE_HI, adjoint, as_matrix, pd_certificate

__all__ = [
    "GenConfig",
    "Streams",
    "mix_seed",
    "ginibre_stack",
    "pd_stack",
    "sectorial_stack",
    "accretive_dissipative_stack",
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
    an int), and scale lies in [2^-256, 2^256], linalg's safe range: there
    a draw's products G G* neither overflow nor leave the normal range.
    scale is stored as a Python float.
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
        if not (0 < self.scale < math.inf):
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")
        # A numpy float32 would take the range test and the draws' products
        # in its own precision.
        object.__setattr__(self, "scale", float(self.scale))
        if not (1.0 / _SAFE_HI <= self.scale <= _SAFE_HI):
            raise ValueError(f"scale must lie in [2^-256, 2^256], got {self.scale!r}")


@functools.cache
def _philox_template():
    """An all-zero seed sequence and the Philox state it gives, built once.

    Philox(key=k) builds a SeedSequence from OS entropy that the key then
    overrides, which costs most of its construction; Philox(zero) is
    Philox(key=0) without it.  Its state is that of Philox(key=k) for a
    64-bit k but for the key: a zero counter, an empty buffer, and k in
    the low word of the key.  Built on first use, so that importing the
    package does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class ZeroSeed(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    zero = ZeroSeed()
    return zero, np.random.Philox(zero).state


class Streams:
    """Philox streams keyed by 64-bit seeds, drawn from one bit generator.

    ``rng(key)`` re-keys the bit generator through its ``state`` and
    returns a Generator whose draws are bit for bit those of a fresh
    ``Generator(Philox(key=key))``, at about a sixth of the cost of building
    one.  A Generator it returns is valid until the next ``rng`` call.
    """

    def __init__(self):
        zero, fresh = _philox_template()
        self._bits = np.random.Philox(zero)
        self._rng = np.random.Generator(self._bits)
        # The template's arrays are only read (setting a state copies
        # them); the key is this instance's own.
        self._key = np.zeros(2, dtype=np.uint64)
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


def _dimension(cfgs) -> int:
    if not cfgs:
        raise ValueError("a stack needs at least one config")
    n = cfgs[0].n
    for k, cfg in enumerate(cfgs):
        if cfg.n != n:
            raise ValueError(f"config {k} has n = {cfg.n}, expected {n}")
    return n


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of each matrix of a stack: linalg.cartesian_parts' real part, bit for bit, without its skew part."""
    return (M + adjoint(M)) / 2


# Every factory below draws a stack: one matrix per config, each from its
# own Philox stream, with one batched product or factorization per step.
# The single-matrix factories are the stack of one.  A public factory
# validates its configs (GenConfig) and hands integer seeds and float
# scales to the private draw of the same name, which turns every Gaussian
# stream of a draw into Gaussians in one Box-Muller transform.


def _ginibre(streams: Streams, n: int, seeds, scales) -> np.ndarray:
    """ginibre_stack of the configs (n, seed, scale), one per seed and scale."""
    count = n * n
    u = np.array([streams.rng(seed).random(2 * count) for seed in seeds])
    z = np.sqrt(-np.log(1.0 - u[:, :count])) * np.exp(2j * np.pi * u[:, count:])
    return np.array(scales)[:, None, None] * z.reshape(-1, n, n)


def ginibre_stack(cfgs, streams: Streams | None = None) -> np.ndarray:
    """Matrices of i.i.d. standard complex Gaussian entries, each times its cfg.scale.

    Polar Box-Muller: sqrt(-log u1) * exp(2*pi*i*u2) is standard complex
    Gaussian (E|z|^2 = 1), with u1 shifted into (0, 1] so the log is
    finite; each stream gives its n^2 values of u1, then its n^2 of u2.
    """
    n = _dimension(cfgs)
    return _ginibre(streams or _local_streams(), n, [cfg.seed for cfg in cfgs], [cfg.scale for cfg in cfgs])


def pd_stack(cfgs, streams: Streams | None = None) -> np.ndarray:
    """Hermitian positive definite matrices G G* + 1e-6 * scale^2 * I.

    G is a Ginibre draw times scale, so G G* and its shift both scale as
    scale^2, and a power-of-two scale multiplies the scale-1 draw exactly.
    Each draw is proved positive definite by linalg.pd_certificate, one
    stacked Cholesky; lambda_min is computed only for a failure's message.
    """
    n = _dimension(cfgs)
    return _pd(streams or _local_streams(), n, [cfg.seed for cfg in cfgs], [cfg.scale for cfg in cfgs])


def _pd(streams: Streams, n: int, seeds, scales) -> np.ndarray:
    """pd_stack of the configs (n, seed, scale), one per seed and scale."""
    G = _ginibre(streams, n, [mix_seed(seed, _STREAM_PD) for seed in seeds], scales)
    shift = 1e-6 * np.array([scale**2 for scale in scales])
    P = _hermitian_part(G @ adjoint(G) + shift[:, None, None] * np.eye(n))
    for ok, Pk in zip(pd_certificate(P)[0], P):
        if not ok:
            lam_min = float(np.linalg.eigvalsh(Pk)[0])
            raise RuntimeError(f"positive definite construction failed: lambda_min = {lam_min}")
    return P


def sectorial_stack(cfgs, alphas, streams: Streams | None = None) -> np.ndarray:
    """Accretive matrices whose numerical ranges have angular half-widths ``alphas``.

    Each is the congruence G (I + i diag(t)) G* of a Ginibre matrix G and
    a real tilt vector t of n i.i.d. uniforms on [-1, 1), rescaled so
    that max|t_j| = tan(alpha), formed as G G* + i G diag(t) G* with both
    parts made exactly Hermitian.  Quadratic forms satisfy <Xx,x> =
    ||y||^2 + i sum_j t_j |y_j|^2 with y = G*x, and G* is invertible, so
    the arguments over the numerical range span exactly [arctan min t,
    arctan max t], and the extreme one is arctan(max|t_j|) = alpha.
    Every sectorial matrix is such a congruence T diag(e^{i theta_j}) T*
    with |theta_j| <= alpha (Zhang, "A matrix decomposition and its
    applications", Linear Multilinear Algebra 63, 2015).  A Hermitian
    tilt would need no more: G (I + i U diag(t) U*) G* = GU (I + i
    diag(t)) (GU)* for unitary U, and GU is again Ginibre, as G's law is
    unitarily invariant, so only the tilt's spectrum matters to the law,
    and it is drawn directly.  An alpha of 0 makes t = 0 and gives the
    positive definite G G* itself.
    """
    n = _dimension(cfgs)
    alphas = [float(a) for a in alphas]
    if len(alphas) != len(cfgs):
        raise ValueError(f"{len(cfgs)} configs need {len(cfgs)} alphas, got {len(alphas)}")
    for alpha in alphas:
        if not (0.0 <= alpha < math.pi / 2):
            raise ValueError(f"alpha must lie in [0, pi/2), got {alpha}")
    seeds, scales = [cfg.seed for cfg in cfgs], [cfg.scale for cfg in cfgs]
    return _sectorial_draw(streams or _local_streams(), n, seeds, scales, alphas)[0]


def _sectorial_draw(streams: Streams, n: int, seeds, scales, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sectorial_stack's matrices, and the smallest and largest entry of each scaled tilt t.

    The configs are (n, seed, scale), one per seed and scale, and each
    alpha is a float in [0, pi/2).  G comes from the seed's base stream,
    with the bits of ginibre_stack, and t from its tilt stream, n
    uniforms u mapped to 2u - 1 (a t of zeros becomes ones, which has a
    direction to scale).  X is one broadcast product of the stack
    (G, G diag(t)) against G* and one Hermitian part; no numpy.linalg
    routine runs.  The arguments of W(X) span exactly [arctan min t,
    arctan max t] for the exact product of the float G and t, so the
    extremes are the draw's sector witness as they stand.
    """
    G = _ginibre(streams, n, [mix_seed(seed, _STREAM_SECT_BASE) for seed in seeds], scales)
    t = 2.0 * np.array([streams.rng(mix_seed(seed, _STREAM_SECT_TILT)).random(n) for seed in seeds]) - 1.0
    peaks = np.max(np.abs(t), axis=-1)
    if not peaks.all():
        zero = peaks == 0.0
        t[zero] = 1.0
        peaks[zero] = 1.0
    t *= (np.array([math.tan(alpha) for alpha in alphas]) / peaks)[:, None]
    H = _hermitian_part(np.stack((G, G * t[:, None, :])) @ adjoint(G))
    return H[0] + 1j * H[1], t.min(axis=-1), t.max(axis=-1)


def accretive_dissipative_stack(cfgs, streams: Streams | None = None) -> np.ndarray:
    """Matrices A + iB with independent positive definite A and B."""
    n = _dimension(cfgs)
    return _accretive_dissipative(streams or _local_streams(), n, [cfg.seed for cfg in cfgs], [cfg.scale for cfg in cfgs])


def _accretive_dissipative(streams: Streams, n: int, seeds, scales) -> np.ndarray:
    """accretive_dissipative_stack of the configs (n, seed, scale), one per seed and scale."""
    tags = (_STREAM_AD_RE, _STREAM_AD_IM)
    P = _pd(streams, n, [mix_seed(seed, tag) for seed in seeds for tag in tags], [s for s in scales for _ in tags])
    return P[0::2] + 1j * P[1::2]


def random_ginibre(cfg: GenConfig) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries, times cfg.scale."""
    return ginibre_stack([cfg])[0]


def random_pd(cfg: GenConfig) -> np.ndarray:
    """Hermitian positive definite matrix G G* + 1e-6 * scale^2 * I (see pd_stack)."""
    return pd_stack([cfg])[0]


def random_sectorial(cfg: GenConfig, alpha: float) -> np.ndarray:
    """Accretive matrix whose numerical range has angular half-width alpha (see sectorial_stack)."""
    return sectorial_stack([cfg], [alpha])[0]


def random_accretive_dissipative(cfg: GenConfig) -> np.ndarray:
    """Matrix A + iB with independent positive definite A and B."""
    return accretive_dissipative_stack([cfg])[0]


def random_unitary(cfg: GenConfig) -> np.ndarray:
    """Haar-like unitary from QR of a Ginibre draw with phase-fixed R."""
    G = _ginibre(_local_streams(), cfg.n, [mix_seed(cfg.seed, _STREAM_UNITARY)], [1.0])[0]
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return as_matrix(Q * phases[np.newaxis, :])
