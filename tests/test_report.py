import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sector_radius import report as report_module
from sector_radius.harness import DEFAULT_NORMS, run_suite, tightness_scan
from sector_radius.report import VERDICTS, CheckResult, Interval, SuiteReport, IdSummary, classify

# The benchmark's workloads, read and never changed, as tests/test_bench.py reads them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

# Finite floats whose sums and products stay finite, subnormals included.
FLOATS = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@st.composite
def intervals(draw):
    a, b = sorted((draw(FLOATS), draw(FLOATS)))
    return Interval(a, b)


def encloses(iv: Interval, exact: Fraction) -> bool:
    return Fraction(iv.lo) <= exact <= Fraction(iv.hi)


class TestInterval:
    def test_point_with_pads(self):
        iv = Interval.point(2.0, rel=1e-2, abs_=0.1)
        assert iv.lo == pytest.approx(2.0 - 0.12)
        assert iv.hi == pytest.approx(2.0 + 0.12)
        assert iv.mid == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_product_covers_sign_cases(self):
        a = Interval(-2.0, 3.0)
        b = Interval(-1.0, 4.0)
        prod = a * b
        assert prod.lo == math.nextafter(-8.0, -math.inf)
        assert prod.hi == math.nextafter(12.0, math.inf)

    @given(intervals(), intervals())
    def test_sum_and_product_enclose_exact_results(self, a, b):
        total = a + b
        prod = a * b
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                assert encloses(prod, Fraction(x) * Fraction(y))
        assert encloses(total, Fraction(a.lo) + Fraction(b.lo))
        assert encloses(total, Fraction(a.hi) + Fraction(b.hi))

    @given(intervals(), st.floats(min_value=0.0, max_value=1e150))
    def test_scale_encloses_exact_results(self, a, c):
        scaled = a.scale(c)
        assert encloses(scaled, Fraction(a.lo) * Fraction(c))
        assert encloses(scaled, Fraction(a.hi) * Fraction(c))

    @given(FLOATS, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1e100))
    def test_point_encloses_value_minus_and_plus_pad(self, value, rel, abs_):
        iv = Interval.point(value, rel=rel, abs_=abs_)
        pad = Fraction(abs(value) * rel + abs_)  # the pad as point computes it
        assert encloses(iv, Fraction(value) - pad) and encloses(iv, Fraction(value) + pad)

    def test_min_of(self):
        m = Interval.min_of(Interval(1.0, 5.0), Interval(2.0, 3.0))
        assert (m.lo, m.hi) == (1.0, 3.0)

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError):
            Interval(0.0, 1.0).scale(-1.0)


class TestClassify:
    def test_certified_pass_requires_separation(self):
        assert classify(Interval(0.0, 1.0), Interval(1.0, 2.0)) == "certified_pass"
        assert classify(Interval(0.0, 1.0 + 1e-12), Interval(1.0, 2.0)) != "certified_pass"

    def test_certified_fail_requires_separation(self):
        assert classify(Interval(2.0, 3.0), Interval(0.0, 1.0)) == "certified_fail"

    def test_tolerance_pass_on_overlap(self):
        assert classify(Interval(0.9, 1.1), Interval(1.0, 1.05)) == "tolerance_pass"

    def test_inconclusive_on_wide_overlap(self):
        assert classify(Interval(1.0, 3.0), Interval(0.0, 2.5)) == "inconclusive"


class TestCheckResultAndSummary:
    def test_ratio_none_when_rhs_zero(self):
        r = CheckResult.from_comparison("x", Interval(0.5, 0.6), Interval(0.0, 0.0))
        assert r.verdict == "certified_fail"
        assert r.ratio is None
        assert json.dumps(r.to_obj())  # serializable without NaN tricks

    def test_summary_tallies(self):
        s = IdSummary()
        s.add(CheckResult.from_comparison("x", Interval(0.0, 1.0), Interval(2.0, 3.0)))
        s.add(CheckResult.inapplicable("x", "nope"))
        assert s.trials == 2
        assert s.verdicts["certified_pass"] == 1
        assert s.verdicts["inapplicable"] == 1
        assert s.max_ratio is not None

    def test_report_round_trip(self):
        s = IdSummary()
        r = CheckResult.from_comparison("x", Interval(0.0, 1.0), Interval(2.0, 3.0), seed=1, dim=2)
        s.add(r)
        rep = SuiteReport(config={"seed": 1}, per_id={"x": s}, wall_time_s=0.1, results=[r])
        obj = json.loads(rep.to_json())
        assert set(obj) == {"config", "results", "summary"}
        assert obj["summary"]["ok"] is True


# --- the report writer ---------------------------------------------------------


def reference(report: SuiteReport) -> str:
    """The text SuiteReport.to_json must equal."""
    return json.dumps(report.report_obj(), indent=2, sort_keys=True, allow_nan=False)


# Finite floats of every magnitude, with the edge cases drawn often.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, 1.0])
REPORT_FLOATS = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
# Text with the characters json must escape, and some it must not.
ESCAPED = ['"', "\\", "\n", "\x00", "\t", "\x7f", "é", "中", "\U0001f600"]
TEXT = st.text(st.sampled_from(ESCAPED + ["a", " ", "/"])) | st.text()
OPTIONAL_INTS = st.none() | st.integers(min_value=-(2**70), max_value=2**70)
PLAIN = st.recursive(
    st.none() | st.booleans() | OPTIONAL_INTS | REPORT_FLOATS | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=3)
    | st.dictionaries(st.integers(), inner, max_size=2)
    | st.dictionaries(REPORT_FLOATS, inner, max_size=2),
    max_leaves=10,
)


@st.composite
def report_intervals(draw):
    a, b = sorted((draw(REPORT_FLOATS), draw(REPORT_FLOATS)))
    return Interval(a, b)


@st.composite
def check_results(draw):
    return CheckResult(
        id=draw(TEXT),
        lhs=draw(report_intervals()),
        rhs=draw(report_intervals()),
        verdict=draw(st.sampled_from(VERDICTS)),
        ratio=draw(st.none() | REPORT_FLOATS),
        seed=draw(OPTIONAL_INTS),
        norm=draw(TEXT),
        dim=draw(OPTIONAL_INTS),
        note=draw(TEXT),
    )


@st.composite
def id_summaries(draw):
    return IdSummary(
        trials=draw(st.integers(min_value=0, max_value=10**6)),
        verdicts={v: draw(st.integers(min_value=0, max_value=10**6)) for v in VERDICTS},
        max_ratio=draw(st.none() | REPORT_FLOATS),
        worst_margin=draw(st.none() | REPORT_FLOATS),
    )


VERIFY_CONFIG = run_suite(["A_lower"], 1, [2], DEFAULT_NORMS, seed=1).config
TIGHTNESS_CONFIG = tightness_scan("B_prod4", 0, 0).config
# run_suite's keys, each with run_suite's value or any other value json
# writes: the writer's config template takes the one, the reference the other.
SUITE_KEYED_CONFIGS = st.fixed_dictionaries({key: st.just(value) | PLAIN for key, value in VERIFY_CONFIG.items()})


@st.composite
def reports(draw):
    config = draw(st.sampled_from([VERIFY_CONFIG, TIGHTNESS_CONFIG, {}]) | st.dictionaries(TEXT, PLAIN, max_size=4))
    return SuiteReport(
        config=config,
        per_id=draw(st.dictionaries(TEXT, id_summaries(), max_size=3)),
        wall_time_s=draw(REPORT_FLOATS),
        results=draw(st.lists(check_results(), max_size=3)),
    )


def last_scalar_set(value, bad):
    """A run_suite config ``value`` with its last scalar replaced by ``bad``."""
    if isinstance(value, (list, tuple)):
        return [*value[:-1], last_scalar_set(value[-1], bad)]
    return bad


def poison(report: SuiteReport, where: str, bad: float) -> SuiteReport:
    """``report`` with ``bad`` in the float field ``where``; results and per_id must not be empty."""
    if where == "wall_time_s":
        return replace(report, wall_time_s=bad)
    if where == "config":
        return replace(report, config={**report.config, "refine_tol": bad})
    if where in ("max_ratio", "worst_margin"):
        key = next(iter(report.per_id))
        summary = IdSummary(**{**vars(report.per_id[key]), where: bad})
        return replace(report, per_id={**report.per_id, key: summary})
    first = report.results[0]
    if where == "ratio":
        first = replace(first, ratio=bad)
    else:
        # Interval refuses a NaN bound, so set it past the constructor.
        side, end = where.split(".")
        iv = replace(getattr(first, side))
        object.__setattr__(iv, end, bad)
        first = replace(first, **{side: iv})
    return replace(report, results=[first, *report.results[1:]])


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(reports())
    def test_to_json_is_the_indented_json_dumps(self, report):
        assert report.to_json() == reference(report)

    @settings(max_examples=300, deadline=None)
    @given(SUITE_KEYED_CONFIGS, st.sampled_from(list(VERIFY_CONFIG)), st.sampled_from([None, math.nan, math.inf]))
    def test_configs_with_the_suite_keys_are_the_indented_json_dumps(self, config, key, bad):
        if bad is not None:
            config = {**config, key: last_scalar_set(VERIFY_CONFIG[key], bad)}
        report = SuiteReport(config=config, per_id={}, wall_time_s=0.0, results=[])
        try:
            expected = reference(report)
        except ValueError:
            with pytest.raises(ValueError, match="Out of range float"):
                report.to_json()
        else:
            assert report.to_json() == expected

    @pytest.mark.parametrize(
        "report",
        [
            run_suite("all", 2, [2, 3], DEFAULT_NORMS, seed=1),
            tightness_scan("B_prod4", 3, 5),
            SuiteReport(config={}, per_id={}, wall_time_s=0.0, results=[]),
        ],
        ids=["suite", "tightness", "empty"],
    )
    def test_suite_reports_are_the_indented_json_dumps(self, report):
        assert report.to_json() == reference(report)

    @settings(max_examples=60, deadline=None)
    @given(
        reports().filter(lambda r: r.results and r.per_id),
        st.sampled_from(["lhs.lo", "lhs.hi", "rhs.lo", "rhs.hi", "ratio", "max_ratio", "worst_margin", "wall_time_s", "config"]),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_nan_and_infinity_are_refused_on_both_sides(self, report, where, bad):
        bad_report = poison(report, where, bad)
        with pytest.raises(ValueError, match="Out of range float"):
            reference(bad_report)
        with pytest.raises(ValueError, match="Out of range float"):
            bad_report.to_json()

    @pytest.mark.parametrize(
        "config",
        [{"seed": np.int64(1)}, {"dims": {2, 3}}, {"grid": b"32"}, {("a",): 1}, {"a": 1, 2: 3}, {"x": [Fraction(1, 3)]}],
    )
    def test_values_json_cannot_encode_are_refused_on_both_sides(self, config):
        report = SuiteReport(config=config, per_id={}, wall_time_s=0.0, results=[])
        with pytest.raises(TypeError):
            reference(report)
        with pytest.raises(TypeError):
            report.to_json()

    def test_subclasses_of_plain_types_are_written_as_json_writes_them(self):
        # numpy's float64 is a float subclass; json writes subclasses as their
        # base type does, whatever their own str and repr say.
        class Count(int):
            def __str__(self):
                return "three"

            __repr__ = __str__

        class Text(str):
            def __str__(self):
                return "text"

            __repr__ = __str__

        config = {
            "tol": np.float64(0.1),
            "n": Count(3),
            Text("k"): Text("v"),
            "by": {Count(4): [Count(5)]},
            "ok": True,
        }
        report = SuiteReport(config=config, per_id={}, wall_time_s=np.float64(1.5), results=[])
        assert report.to_json() == reference(report)

    def test_per_id_keys_other_than_str_are_refused(self):
        # per_id maps id strings to summaries; json would write an int key
        # as a string, and the writer refuses it instead.
        report = SuiteReport(config={}, per_id={1: IdSummary()}, wall_time_s=0.0, results=[])
        with pytest.raises(TypeError):
            report.to_json()


class Verb(str):
    """A str subclass whose str and repr lie; json writes it as the str it is."""

    def __str__(self):
        return "other"

    __repr__ = __str__


class TestConfigCache:
    """run_suite configs: their shared fields' text is cached, and every report still equals the reference."""

    @pytest.mark.parametrize("name", ["suite_small_n", "suite_large_n"])
    def test_benchmark_ops_write_the_indented_json_dumps(self, name):
        # The benchmark's digest hashes report_obj(), not the to_json() text
        # every suite op writes, so only this test sees a writer fault
        # there.  op.run() writes the report once, so each to_json() here
        # runs with the cache warm, and the config's entry is a hit.
        for op in workloads.WORKLOADS[name].build_round(1, 0):
            report = op.run()
            key = tuple(map(id, report_module._shared_values(report.config)))
            assert key in report_module._SHARED_CACHE, op.label
            assert report.to_json() == reference(report), op.label

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
    def test_values_equal_but_of_other_types_never_share_text(self, reverse):
        # 1 == 1.0 == True, [4, 1.0] == (4, 1.0) == (4, 1) and
        # Verb("verify") == "verify", but json writes each its own way
        # (a Verb as the str it is); -0.0 == 0.0 too.  Each config is
        # written twice, the second time after the first could cache it.
        changes = [
            {"m_fold": 1},
            {"m_fold": 1.0},
            {"m_fold": True},
            {"m_fold": 3.0},
            {"coarse_passes": [[4, 1.0], [8, 0.2]]},
            {"coarse_passes": ((4, 1.0), (8, 0.2))},
            {"coarse_passes": ((4, 1), (8, 0.2))},
            {"coarse_passes": ((4, True), [8, 0.2])},
            {"mode": "verify"},
            {"mode": Verb("verify")},
            {"mode": "50% %s"},
            {"refine_tol": 0.0},
            {"refine_tol": -0.0},
            {"alpha_inflation": None},
        ]
        for change in changes[::-1] if reverse else changes:
            report = SuiteReport(config={**VERIFY_CONFIG, **change}, per_id={}, wall_time_s=0.0, results=[])
            for _ in range(2):
                assert report.to_json() == reference(report), change

    @pytest.mark.parametrize("nested", [False, True], ids=["list", "tuple_of_lists"])
    def test_a_list_changed_in_place_is_written_as_it_now_is(self, nested):
        rung = [4, 1.0]
        passes = (rung, (8, 0.2)) if nested else [rung, [8, 0.2]]
        report = SuiteReport(config={**VERIFY_CONFIG, "coarse_passes": passes}, per_id={}, wall_time_s=0.0, results=[])
        first = report.to_json()
        assert first == reference(report)
        rung[1] = 0.5
        assert report.to_json() == reference(report) != first

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
    def test_bad_values_raise_as_json_raises_whatever_was_cached(self, reverse):
        bad = [
            ({"refine_tol": math.nan}, ValueError),
            ({"coarse_passes": ((4, math.inf),)}, ValueError),
            ({"m_fold": object()}, TypeError),
            ({"mode": b"verify"}, TypeError),
            ({"dims": [2, math.nan]}, ValueError),
        ]
        for change, error in bad[::-1] if reverse else bad:
            good = SuiteReport(config=VERIFY_CONFIG, per_id={}, wall_time_s=0.0, results=[])
            assert good.to_json() == reference(good)
            report = SuiteReport(config={**VERIFY_CONFIG, **change}, per_id={}, wall_time_s=0.0, results=[])
            for _ in range(2):
                with pytest.raises(error):
                    reference(report)
                with pytest.raises(error):
                    report.to_json()

    def test_the_cache_stays_bounded(self):
        for k in range(3 * report_module._SHARED_CACHE_SIZE):
            config = {**VERIFY_CONFIG, "refine_tol": 1e-3 + k}
            report = SuiteReport(config=config, per_id={}, wall_time_s=0.0, results=[])
            assert report.to_json() == reference(report)
            assert len(report_module._SHARED_CACHE) <= report_module._SHARED_CACHE_SIZE
