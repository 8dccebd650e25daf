"""Interval bookkeeping and result records for certified comparisons.

A check compares two real quantities, each known only up to an enclosing
interval.  A pass or fail is *certified* when the intervals do not
overlap; otherwise the verdict falls back to a midpoint tolerance test.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

__all__ = [
    "Interval",
    "CheckResult",
    "IdSummary",
    "SuiteReport",
    "VERDICTS",
    "classify",
]

VERDICTS = (
    "certified_pass",
    "tolerance_pass",
    "certified_fail",
    "inconclusive",
    "inapplicable",
)

# Midpoint fallback used when intervals overlap: lhs <= rhs*(1+REL) + ABS.
TOLERANCE_REL = 1e-7
TOLERANCE_ABS = 1e-9


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] enclosing one real quantity.

    point, +, * and scale round outward: each computed bound moves one
    ulp away from the interval's interior.  A round-to-nearest result is
    within half an ulp of the exact one, so the exact result of the
    operation on the operands' bounds stays enclosed.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: float, rel: float = 0.0, abs_: float = 0.0) -> "Interval":
        pad = abs(value) * rel + abs_
        return cls(_down(value - pad), _up(value + pad))

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __mul__(self, other: "Interval") -> "Interval":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(_down(min(cands)), _up(max(cands)))

    def scale(self, c: float) -> "Interval":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return Interval(_down(self.lo * c), _up(self.hi * c))

    @staticmethod
    def min_of(a: "Interval", b: "Interval") -> "Interval":
        return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def classify(lhs: Interval, rhs: Interval) -> str:
    """Verdict for the claim lhs <= rhs given enclosing intervals."""
    if lhs.hi <= rhs.lo:
        return "certified_pass"
    if lhs.lo > rhs.hi:
        return "certified_fail"
    if lhs.mid <= rhs.mid * (1.0 + TOLERANCE_REL) + TOLERANCE_ABS:
        return "tolerance_pass"
    return "inconclusive"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one certified comparison, with provenance."""

    id: str
    lhs: Interval
    rhs: Interval
    verdict: str
    ratio: float | None
    seed: int | None = None
    norm: str = "op"
    dim: int | None = None
    note: str = ""

    @classmethod
    def from_comparison(
        cls,
        id: str,
        lhs: Interval,
        rhs: Interval,
        seed: int | None = None,
        norm: str = "op",
        dim: int | None = None,
        note: str = "",
    ) -> "CheckResult":
        verdict = classify(lhs, rhs)
        ratio: float | None
        if rhs.mid != 0.0 and math.isfinite(lhs.mid / rhs.mid):
            ratio = lhs.mid / rhs.mid
        else:
            ratio = None
        return cls(id, lhs, rhs, verdict, ratio, seed, norm, dim, note)

    @classmethod
    def inapplicable(
        cls,
        id: str,
        reason: str,
        seed: int | None = None,
        norm: str = "op",
        dim: int | None = None,
    ) -> "CheckResult":
        zero = Interval(0.0, 0.0)
        return cls(id, zero, zero, "inapplicable", None, seed, norm, dim, reason)

    @property
    def margin(self) -> float:
        """Certified slack rhs.lo - lhs.hi (negative when not certified)."""
        return self.rhs.lo - self.lhs.hi

    def to_obj(self) -> dict:
        return {
            "id": self.id,
            "verdict": self.verdict,
            "lhs": [self.lhs.lo, self.lhs.hi],
            "rhs": [self.rhs.lo, self.rhs.hi],
            "ratio": self.ratio,
            "seed": self.seed,
            "norm": self.norm,
            "dim": self.dim,
            "note": self.note,
        }


@dataclass
class IdSummary:
    trials: int = 0
    verdicts: dict = field(default_factory=lambda: {v: 0 for v in VERDICTS})
    max_ratio: float | None = None
    worst_margin: float | None = None

    def add(self, r: CheckResult) -> None:
        self.trials += 1
        self.verdicts[r.verdict] += 1
        if r.verdict == "inapplicable":
            return
        if r.ratio is not None:
            self.max_ratio = r.ratio if self.max_ratio is None else max(self.max_ratio, r.ratio)
        m = r.margin
        self.worst_margin = m if self.worst_margin is None else min(self.worst_margin, m)

    def to_obj(self) -> dict:
        return {
            "trials": self.trials,
            "verdicts": dict(self.verdicts),
            "max_ratio": self.max_ratio,
            "worst_margin": self.worst_margin,
        }


@dataclass
class SuiteReport:
    """Aggregated outcome of a randomized verification run."""

    config: dict
    per_id: dict
    wall_time_s: float
    results: list

    @property
    def certified_fail_total(self) -> int:
        return sum(s.verdicts["certified_fail"] for s in self.per_id.values())

    @property
    def ok(self) -> bool:
        return self.certified_fail_total == 0

    def summary_obj(self) -> dict:
        return {
            "config": self.config,
            "per_id": {k: v.to_obj() for k, v in self.per_id.items()},
            "certified_fail_total": self.certified_fail_total,
            "ok": self.ok,
            "wall_time_s": self.wall_time_s,
        }

    def report_obj(self) -> dict:
        return {
            "config": self.config,
            "results": [r.to_obj() for r in self.results],
            "summary": self.summary_obj(),
        }

    def to_json(self) -> str:
        """The report as JSON text, exactly ``json.dumps(self.report_obj(),
        indent=2, sort_keys=True, allow_nan=False)``.

        That layout is the report contract, and TestReportPin pins its
        bytes: keys sorted, two spaces of indent per level, ``": "`` after
        keys, ``[]`` and ``{}`` for empty containers, ASCII-only strings
        and no trailing newline.  Each result and each id summary is
        written from one format string, its fields by type as json writes
        them (floats by ``float.__repr__``), since json's indenting encoder
        is pure Python.  ``config`` is written once for both of its places:
        from one format string when it has run_suite's keys (_config), its
        fields shared by every run_suite report cached, and otherwise, or
        when a value is not one that string writes, by the reference
        ``json.dumps`` call itself.  ``per_id`` keys are id
        strings: any other key raises TypeError.  A NaN or an infinity
        raises ValueError and a value json cannot encode raises TypeError,
        as in the reference.
        """
        config = _config(self.config)
        per_id = [_id_summary(k, self.per_id[k]) for k in sorted(self.per_id)]
        fails = self.certified_fail_total
        return _REPORT % (
            config,
            _block("[", [_result(r) for r in self.results], "]", 1),
            _scalar(fails),
            config.replace("\n", "\n  "),
            _scalar(fails == 0),
            _block("{", per_id, "}", 2),
            _scalar(self.wall_time_s),
        )


# --- report writer -------------------------------------------------------------
#
# Every string json.encoder.encode_basestring_ascii returns escapes its
# newlines, so a "\n" in encoded text is always a line break: re-indenting
# a block is one str.replace.

_INDENT = "  "
_escape = json.encoder.encode_basestring_ascii


def _float(o: float) -> str:
    if math.isfinite(o):
        return float.__repr__(o)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(o))


# Scalar writers by exact type; subclasses take _scalar's isinstance path.
_SCALARS = {
    str: _escape,
    float: _float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda o: "null",
}


def _block(opening: str, items: list, closing: str, level: int) -> str:
    """A container whose encoded ``items`` go one level below ``level``."""
    if not items:
        return opening + closing
    inner = "\n" + _INDENT * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + _INDENT * level + closing


def _scalar(o) -> str:
    """``o``, a str, int, float, bool or None, as json writes it."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    for base in (str, int, float):
        if isinstance(o, base):
            return _SCALARS[base](o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


# json.dumps(o, indent=2, sort_keys=True, allow_nan=False) is this encoder's
# encode(o); one instance saves building it for every report.
_REFERENCE = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def _json(o, level: int) -> str:
    """``o`` as the reference writes a value on a line at indent ``level``."""
    return _REFERENCE.encode(o).replace("\n", "\n" + _INDENT * level)


def _array(o, level: int = 2) -> str:
    """A list or tuple of scalars as json writes it at indent ``level``; TypeError for any other value."""
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"not a list of scalars: {o!r}")
    return _block("[", [_SCALARS.get(type(x), _scalar)(x) for x in o], "]", level)


def _arrays(o) -> str:
    """A list or tuple of _array values, as the value of a key of _CONFIG."""
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"not a list of lists: {o!r}")
    return _block("[", [_array(x, 3) for x in o], "]", 2)


def _config(config) -> str:
    """``config`` as _json(config, 1) writes it.

    A dict with run_suite's keys is written from _CONFIG in sorted key
    order, each value by the writer of its key: the fields every
    run_suite report of a process shares come from _shared_config's
    cache, and the per-op ones (_OWN) are written on each call.  A writer
    raises TypeError for a value of another type and ValueError for a NaN
    or an infinity; the reference then writes the config, so any value
    json takes is written as json writes it, and any other raises json's
    own error.
    """
    if isinstance(config, dict) and config.keys() == _CONFIG_KEYS:
        try:
            return _shared_config(config) % tuple([write(config[key]) for key, write in _OWN])
        except (TypeError, ValueError):
            pass
    return _json(config, 1)


def _frozen(o) -> bool:
    """Whether ``o`` is a str, int, float, bool or None of that exact type, or a tuple of such values.

    Such a value can never change, nor can json's text of it.
    """
    kind = type(o)
    if kind is tuple:
        return all(map(_frozen, o))
    return kind in _SCALARS


def _shared_config(config: dict) -> str:
    """_CONFIG with the fields of _SHARED written in and a ``%s`` left for each of _OWN.

    The text is cached on the fields' values themselves, keyed by their
    identities: an entry holds its values, so no other object can take
    their ids while it stays, and a value is cached only when _frozen, so
    its text cannot change.  So 1, 1.0 and True, or a list and a tuple,
    never share an entry, and a list is written afresh each time.  The
    cache holds at most _SHARED_CACHE_SIZE entries and is emptied when
    full.
    """
    values = _shared_values(config)
    key = tuple(map(id, values))
    entry = _SHARED_CACHE.get(key)
    if entry is not None:
        return entry[1]
    written = {name: write(v).replace("%", "%%") for (name, write), v in zip(_SHARED, values)}
    text = _CONFIG % tuple([written.get(name, "%s") for name, _ in _CONFIG_FIELDS])
    if all(map(_frozen, values)):
        if len(_SHARED_CACHE) >= _SHARED_CACHE_SIZE:
            _SHARED_CACHE.clear()
        _SHARED_CACHE[key] = (values, text)
    return text


_REPORT = """{
  "config": %s,
  "results": %s,
  "summary": {
    "certified_fail_total": %s,
    "config": %s,
    "ok": %s,
    "per_id": %s,
    "wall_time_s": %s
  }
}"""

# run_suite's config keys in sorted order, each with its writer; the lines
# after the first are at the indent of the report's "config".
_CONFIG = """{
    "alpha_inflation": %s,
    "coarse_passes": %s,
    "dims": %s,
    "ids": %s,
    "m_fold": %s,
    "mode": %s,
    "norms": %s,
    "refine_tol": %s,
    "seed": %s,
    "trials": %s
  }"""
_CONFIG_FIELDS = (
    ("alpha_inflation", _scalar),
    ("coarse_passes", _arrays),
    ("dims", _array),
    ("ids", _array),
    ("m_fold", _scalar),
    ("mode", _scalar),
    ("norms", _array),
    ("refine_tol", _scalar),
    ("seed", _scalar),
    ("trials", _scalar),
)
_CONFIG_KEYS = frozenset(key for key, _ in _CONFIG_FIELDS)
# The fields run_suite writes the same for every op of a context, and the
# ones each op sets; both in sorted key order.
_OWN_KEYS = ("dims", "ids", "norms", "seed", "trials")
_SHARED = tuple(field for field in _CONFIG_FIELDS if field[0] not in _OWN_KEYS)
_OWN = tuple(field for field in _CONFIG_FIELDS if field[0] in _OWN_KEYS)
_shared_values = operator.itemgetter(*(key for key, _ in _SHARED))
_SHARED_CACHE: dict[tuple, tuple[tuple, str]] = {}
_SHARED_CACHE_SIZE = 32

# CheckResult.to_obj's keys in sorted order; the lines after the first are
# at the indent an item of "results" has.
_RESULT = """{
      "dim": %s,
      "id": %s,
      "lhs": [
        %s,
        %s
      ],
      "norm": %s,
      "note": %s,
      "ratio": %s,
      "rhs": [
        %s,
        %s
      ],
      "seed": %s,
      "verdict": %s
    }"""

# Each verdict name as a key of "verdicts" writes it.
_VERDICT_KEYS = {v: _escape(v) + ": " for v in VERDICTS}

# IdSummary.to_obj's keys in sorted order; the lines after the first are at
# the indent an entry of "per_id" has.
_ID_SUMMARY = """%s: {
        "max_ratio": %s,
        "trials": %s,
        "verdicts": %s,
        "worst_margin": %s
      }"""


def _result(r: CheckResult) -> str:
    fields = (r.dim, r.id, r.lhs.lo, r.lhs.hi, r.norm, r.note, r.ratio, r.rhs.lo, r.rhs.hi, r.seed, r.verdict)
    return _RESULT % tuple([_SCALARS.get(type(v), _scalar)(v) for v in fields])


def _id_summary(key: str, s: IdSummary) -> str:
    verdicts = [
        (_VERDICT_KEYS.get(v) or _escape(v) + ": ") + _SCALARS.get(type(c), _scalar)(c)
        for v, c in sorted(s.verdicts.items())
    ]
    return _ID_SUMMARY % (
        _escape(key),
        _scalar(s.max_ratio),
        _scalar(s.trials),
        _block("{", verdicts, "}", 4),
        _scalar(s.worst_margin),
    )
