import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sector_radius.report import CheckResult, Interval, SuiteReport, IdSummary, classify

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
