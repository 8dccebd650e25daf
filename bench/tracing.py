"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.installed`` swaps wrappers in for the public entry points that
``harness`` calls (``omega_n``, ``rotation_to_sector``, ``sector_index``,
``evaluate_norm``, ``generate_inputs``), for ``run_suite`` and ``omega_n``
as the benchmark's ops call them, for ``SuiteReport.to_json``, and for the
``numpy.linalg`` eigensolvers every module calls through. Nothing in the
package changes; the originals are put back on exit.

A span is (name, start, end, parent, op, attrs, error). Spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of its direct children; the program is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import sector_radius as sr
import sector_radius.harness as sr_harness
import sector_radius.report as sr_report

# How radius.eig_matrices_per_call is split: by norm label and by n.
RADIUS_NORMS = ("op", "tr", "fro", "sp3")
RADIUS_DIMS = (2, 3, 4, 5, 6, 16, 24, 32)


def _radius_attrs(args, kwargs, result):
    spec, X = args[0], args[1]
    return (spec.label.replace(":", ""), np.shape(X)[0])


def _eig_attrs(args, kwargs, result):
    shape = np.shape(args[0])
    return (shape[-1], math.prod(shape[:-2]))


def _report_attrs(args, kwargs, result):
    return len(result)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1

    def _call(self, name, fn, attrs, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        result = None
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            attr = attrs(args, kwargs, result) if attrs is not None and error is None else None
            self.spans[idx] = (name, start, end, parent, self._op, attr, error)

    def wrap(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, attrs, args, kwargs)

        return wrapper

    def run_op(self, op_id: int, fn):
        self._op = op_id
        try:
            return self._call("op", fn, None, (), {})
        finally:
            self._op = -1

    @contextmanager
    def installed(self):
        targets = [
            (sr, "run_suite", "harness", None),
            (sr, "omega_n", "radius", _radius_attrs),
            (sr_harness, "omega_n", "radius", _radius_attrs),
            (sr_harness, "rotation_to_sector", "sectorial", None),
            (sr_harness, "sector_index", "sectorial", None),
            (sr_harness, "evaluate_norm", "norms", None),
            (sr_harness, "generate_inputs", "generator", None),
            (sr_report.SuiteReport, "to_json", "report", _report_attrs),
            (np.linalg, "eigvalsh", "linalg", _eig_attrs),
            (np.linalg, "eigh", "linalg", _eig_attrs),
            (np.linalg, "svd", "linalg", _eig_attrs),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for (owner, attr, name, attrs), (_, _, original) in zip(targets, saved):
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def to_obj(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op", "attrs", "error"],
            "spans": self.spans,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, n_ops: int, n_inapplicable: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass over ``n_ops`` ops, and calls per span name.

    Eigensolver spans are attributed to the layer whose span issued them
    (their direct parent).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    eig_calls = defaultdict(int)  # by issuing layer
    eig_mats = defaultdict(int)
    radius_calls = defaultdict(int)  # by norm label and by n
    radius_mats = defaultdict(int)
    eig_s = 0.0
    report_bytes = 0
    for i, (name, start, end, parent, _op, attrs, error) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        errors[name] += error is not None
        if name == "radius" and attrs is not None:
            for key in attrs:
                radius_calls[key] += 1
        elif name == "report" and attrs is not None:
            report_bytes += attrs
        elif name == "linalg":
            eig_s += end - start
            owner = spans[parent][0] if parent >= 0 else "bench"
            batch = attrs[1] if attrs is not None else 0
            eig_calls[owner] += 1
            eig_mats[owner] += batch
            if owner == "radius" and spans[parent][5] is not None:
                for key in spans[parent][5]:
                    radius_mats[key] += batch

    m = {
        "radius.calls_per_op": _ratio(calls["radius"], n_ops),
        "radius.self_ms_per_call": 1e3 * _ratio(self_s["radius"], calls["radius"]),
        "radius.eig_calls_per_call": _ratio(eig_calls["radius"], calls["radius"]),
        "radius.eig_matrices_per_call": _ratio(eig_mats["radius"], calls["radius"]),
    }
    for label in RADIUS_NORMS:
        m[f"radius.eig_matrices_per_call.{label}"] = _ratio(radius_mats[label], radius_calls[label])
    for n in RADIUS_DIMS:
        m[f"radius.eig_matrices_per_call.n{n}"] = _ratio(radius_mats[n], radius_calls[n])
    total_eig_calls = calls["linalg"]
    total_eig_mats = sum(eig_mats.values())
    m.update({
        "sectorial.calls_per_op": _ratio(calls["sectorial"], n_ops),
        "sectorial.self_ms_per_call": 1e3 * _ratio(self_s["sectorial"], calls["sectorial"]),
        "sectorial.eig_calls_per_call": _ratio(eig_calls["sectorial"], calls["sectorial"]),
        "sectorial.eig_matrices_per_call": _ratio(eig_mats["sectorial"], calls["sectorial"]),
        "sectorial.not_sectorial_frac": _ratio(errors["sectorial"], calls["sectorial"]),
        "linalg.eig_calls_per_op": _ratio(total_eig_calls, n_ops),
        "linalg.eig_matrices_per_op": _ratio(total_eig_mats, n_ops),
        "linalg.eig_ms_per_op": 1e3 * _ratio(eig_s, n_ops),
        "linalg.matrices_per_eig_call": _ratio(total_eig_mats, total_eig_calls),
        "linalg.us_per_eig_call": 1e6 * _ratio(eig_s, total_eig_calls),
        "harness.self_ms_per_op": 1e3 * _ratio(self_s["harness"], n_ops),
        "harness.inapplicable_frac": _ratio(n_inapplicable, n_ops),
        "generator.self_ms_per_op": 1e3 * _ratio(self_s["generator"], n_ops),
        "norms.calls_per_op": _ratio(calls["norms"], n_ops),
        "norms.self_ms_per_call": 1e3 * _ratio(self_s["norms"], calls["norms"]),
        "report.to_json_ms": 1e3 * _ratio(self_s["report"], n_ops),
        "report.bytes": _ratio(report_bytes, n_ops),
    })
    return m, dict(calls)
