"""Event windows, abnormal returns, weighting, aggregation, variance ratios, and the whole study."""

from dataclasses import fields, is_dataclass, replace
from datetime import date, timedelta

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosslist.errors import (
    EventAfterPanelEnd,
    ExactFitNoVariance,
    MisalignedOffsets,
    UnknownFirm,
    WindowOutOfData,
)
from crosslist.event_study import (
    EventPanelResult,
    EventWindows,
    OffsetRange,
    abnormal_returns,
    aggregate,
    cap_weights,
    run_event_study,
    standardize,
    study_firm,
    variance_ratio_report,
)
from crosslist.garch import MIN_OBSERVATIONS, GarchSimConfig, simulate_bundle, simulate_garch
from crosslist.linear_models import ols_fit
from crosslist.market_data import InstrumentRecord, PriceSeries, RateSeries

from .support import Rejections, null_rejections, simulate_panel
from .test_market_data import weekday_dates

REFERENCE_CAPS = {
    "SHI": 5.35e9,
    "GSH": 4.31e9,
    "SNP": 104.76e9,
    "HNP": 18.13e9,
    "ZHN": 9.03e9,
    "LFC": 141.79e9,
    "CEA": 11.61e9,
    "ACH": 8.68e9,
    "PTR": 240.43e9,
    "CHU": 36.119e9,
}


def record(n_code, cap):
    return InstrumentRecord(
        name=n_code,
        a_code=f"6{n_code:0>5}",
        n_code=n_code,
        industry="Energy",
        market_cap_usd=cap,
        us_listing_date=date(2007, 1, 15),
        local_listing_date=date(1997, 1, 15),
        price_file=f"{n_code}.csv",
    )


class TestWindows:
    def test_defaults(self):
        w = EventWindows()
        assert (w.estimation.lo, w.estimation.hi) == (-105, -15)
        assert (w.event.lo, w.event.hi) == (-15, 15)
        assert (w.pre_var.lo, w.pre_var.hi) == (-105, -15)
        assert (w.post_var.lo, w.post_var.hi) == (15, 105)
        assert w.estimation.length == 91

    def test_estimation_must_precede_day_zero(self):
        with pytest.raises(ValueError):
            EventWindows(estimation=OffsetRange(-60, 0))

    def test_estimation_minimum_length(self):
        with pytest.raises(ValueError):
            EventWindows(estimation=OffsetRange(-30, -15), pre_var=OffsetRange(-30, -15))
        # the fit's minimum: a shorter window would pass here and then fail every firm's fit
        with pytest.raises(ValueError, match=f"estimation window must span >= {MIN_OBSERVATIONS} days, got 59"):
            EventWindows(estimation=OffsetRange(-73, -15))
        assert EventWindows(estimation=OffsetRange(-74, -15)).estimation.length == MIN_OBSERVATIONS == 60

    def test_unordered_range(self):
        with pytest.raises(ValueError):
            OffsetRange(5, -5)

    @pytest.mark.parametrize("lo, hi", [(1, 10), (-10, -1)])
    def test_event_window_must_contain_day_zero(self, lo, hi):
        with pytest.raises(ValueError, match="the event window must contain day 0"):
            EventWindows(event=OffsetRange(lo, hi))


class TestAbnormalReturns:
    def test_zero_when_realized_equals_fitted(self):
        rng = np.random.default_rng(3)
        loc = rng.normal(0, 0.01, 31)
        us = rng.normal(0, 0.01, 31)
        coef = np.array([0.001, 0.7, 0.2])
        realized = np.column_stack([np.ones(31), loc, us]) @ coef
        ar = abnormal_returns(realized, loc, us, coef)
        np.testing.assert_allclose(ar, 0.0, atol=1e-15)

    def test_injected_shock_recovered(self):
        # generator injects +2% on day 0; that injection is the oracle
        rng = np.random.default_rng(5)
        windows = EventWindows()
        day0 = -windows.estimation.lo  # the vectors run from day -105 to day 15
        T = day0 + windows.event.hi + 1
        loc = rng.normal(0, 0.01, T)
        us = rng.normal(0, 0.01, T)
        sigma = 0.01
        coef = np.array([0.0, 0.6, 0.3])
        r = np.column_stack([np.ones(T), loc, us]) @ coef + sigma * rng.standard_normal(T)
        r[day0] += 0.02
        est = slice(0, windows.estimation.length)
        ev = slice(day0 + windows.event.lo, T)
        fit = ols_fit(r[est], [loc[est], us[est]])
        ar = abnormal_returns(r[ev], loc[ev], us[ev], fit.coefficients)
        assert ar[-windows.event.lo] == pytest.approx(0.02, abs=4 * sigma)

    def test_nan_propagates(self):
        ar = abnormal_returns([np.nan, 0.01], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0, 1.0])
        assert np.isnan(ar[0]) and np.isfinite(ar[1])

    @pytest.mark.parametrize(
        "returns, coefficients, error, message",
        [
            ([0.0, 0.0], [0.0, 1.0, 1.0], MisalignedOffsets, "must have equal length"),
            ([0.0, 0.0, 0.0], [0.0, 1.0], ValueError, "mean_coefficients must have 3 entries, got 2"),
        ],
        ids=["unequal-lengths", "two-coefficients"],
    )
    def test_bad_input_raises(self, returns, coefficients, error, message):
        with pytest.raises(error, match=message):
            abnormal_returns(returns, [0.0] * 3, [0.0] * 3, coefficients)


class TestCapWeights:
    def test_singleton(self):
        weights = cap_weights([record("AAA", 5e9)], ["AAA"])
        assert weights == {"AAA": 1.0}

    def test_two_firms(self):
        manifest = [record("AAA", 1e9), record("BBB", 3e9)]
        weights = cap_weights(manifest, ["AAA", "BBB"])
        assert weights["AAA"] == pytest.approx(0.25)
        assert weights["BBB"] == pytest.approx(0.75)

    def test_reference_caps_exact_arithmetic(self):
        import math

        manifest = [record(code, cap) for code, cap in REFERENCE_CAPS.items()]
        weights = cap_weights(manifest, list(REFERENCE_CAPS))
        total = math.fsum(REFERENCE_CAPS.values())
        for code, cap in REFERENCE_CAPS.items():
            assert weights[code] == pytest.approx(cap / total, rel=1e-12)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_firm(self):
        with pytest.raises(UnknownFirm):
            cap_weights([record("AAA", 1e9)], ["AAA", "ZZZ"])

    def test_active_subset_renormalizes(self):
        manifest = [record("AAA", 1e9), record("BBB", 3e9), record("CCC", 6e9)]
        weights = cap_weights(manifest, ["AAA", "BBB"])
        assert weights["BBB"] == pytest.approx(0.75)


class TestStandardize:
    def _fit(self, rng, n=91):
        loc = rng.normal(0, 0.01, n)
        us = rng.normal(0, 0.01, n)
        y = 0.5 * loc + 0.2 * us + rng.normal(0, 0.01, n)
        return ols_fit(y, [loc, us]), loc, us

    def test_zero_ar_gives_zero_star(self):
        rng = np.random.default_rng(7)
        fit, loc, us = self._fit(rng)
        star = standardize(np.zeros(31), fit, loc[:31], us[:31])
        assert star.tolist() == [0.0] * 31

    def test_bounded_by_residual_scale(self):
        rng = np.random.default_rng(9)
        fit, loc, us = self._fit(rng)
        ar = rng.normal(0, 0.02, 31)
        star = standardize(ar, fit, loc[:31], us[:31])
        np.testing.assert_array_less(np.abs(star), np.abs(ar) / np.sqrt(fit.s2) + 1e-15)

    def test_exact_fit_refused(self):
        rng = np.random.default_rng(11)
        loc = rng.normal(0, 0.01, 50)
        us = rng.normal(0, 0.01, 50)
        exact = ols_fit(0.5 * loc - us, [loc, us])
        with pytest.raises(ExactFitNoVariance):
            standardize(np.zeros(3), exact, loc[:3], us[:3])

    def test_unequal_lengths_raise(self):
        fit, loc, us = self._fit(np.random.default_rng(7))
        with pytest.raises(MisalignedOffsets, match="must have equal length"):
            standardize(np.zeros(30), fit, loc[:31], us[:31])


class TestAggregate:
    def test_single_firm_collapse(self):
        rng = np.random.default_rng(13)
        results = simulate_panel(rng, n_firms=1)
        panel = aggregate(results, EventWindows())
        np.testing.assert_allclose(panel.aar, results[0].ar, rtol=1e-12)
        np.testing.assert_array_equal(panel.z, results[0].star)

    def test_car_additivity(self):
        rng = np.random.default_rng(17)
        panel = aggregate(simulate_panel(rng, n_firms=6), EventWindows())
        diffs = np.diff(panel.car) - panel.aar[1:]
        assert np.max(np.abs(diffs)) < 1e-12
        assert panel.car[0] == panel.aar[0]
        assert panel.car[-1] == pytest.approx(panel.aar.sum(), abs=1e-12)

    def test_car_split_additivity(self):
        rng = np.random.default_rng(19)
        panel = aggregate(simulate_panel(rng, n_firms=4), EventWindows())
        # cumulative sums over [a,b] and [b+1,c] add up to [a,c] for any split
        aar = panel.aar
        for split in (3, 10, 22):
            left = aar[:split].sum()
            right = aar[split:].sum()
            assert left + right == pytest.approx(aar.sum(), abs=1e-12)

    def test_non_finite_ar_raises(self):
        # every analysed firm has every event day, so a NaN is a fault, not a missing day
        rng = np.random.default_rng(23)
        results = simulate_panel(rng, n_firms=3)
        for name in ("ar", "star"):
            bad = getattr(results[0], name).copy()
            bad[5] = np.nan
            with pytest.raises(ValueError, match="finite"):
                aggregate([replace(results[0], **{name: bad}), *results[1:]], EventWindows())

    def test_single_day_cz_collapse(self):
        rng = np.random.default_rng(29)
        panel = aggregate(simulate_panel(rng, n_firms=5), EventWindows())
        for t in (-15, 0, 15):
            idx = np.where(panel.offsets == t)[0][0]
            assert panel.cumulative_z(t, t) == panel.z[idx]

    def test_cz_full_window_definition(self):
        rng = np.random.default_rng(31)
        panel = aggregate(simulate_panel(rng, n_firms=5), EventWindows())
        expected = panel.z.sum() * np.sqrt(1.0 / panel.z.shape[0])
        assert panel.cz_full_window == pytest.approx(expected, rel=1e-12)
        assert panel.cumulative_z(-15, 15) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "lo, hi, error, message",
        [
            (2, 1, ValueError, r"range \[2, 1\] is not ordered"),
            (-20, 0, WindowOutOfData, r"offsets \[-20, 0\] are not fully covered"),
        ],
        ids=["unordered", "before-the-window"],
    )
    def test_cumulative_z_bad_range(self, lo, hi, error, message):
        panel = aggregate(simulate_panel(np.random.default_rng(29), n_firms=5), EventWindows())
        with pytest.raises(error, match=message):
            panel.cumulative_z(lo, hi)

    def test_misaligned_offsets(self):
        rng = np.random.default_rng(37)
        results = simulate_panel(rng, n_firms=2)
        import dataclasses

        bad = dataclasses.replace(results[0], ar=results[0].ar[:-1], star=results[0].star[:-1])
        with pytest.raises(MisalignedOffsets):
            aggregate([bad, results[1]], EventWindows())

    def test_requires_at_least_one_firm(self):
        with pytest.raises(ValueError):
            aggregate([], EventWindows())


class TestVarianceRatioReport:
    def test_null_process_rarely_significant(self):
        rng = np.random.default_rng(41)
        windows = EventWindows(
            estimation=OffsetRange(-200, -15),
            pre_var=OffsetRange(-200, -15),
            post_var=OffsetRange(15, 200),
        )
        not_significant = 0
        n_seeds = 200
        for _ in range(n_seeds):
            values = rng.normal(0, 0.02, 401)  # days -200..200
            report = variance_ratio_report({"X": (values, 200)}, windows)
            row = report[0]
            assert row.error is None
            if not row.f_result.significant_5pct:
                not_significant += 1
        assert 0.90 <= not_significant / n_seeds <= 0.99

    def test_doubled_variance_detected(self):
        rng = np.random.default_rng(43)
        windows = EventWindows()
        values = rng.normal(0, 0.02, 211)  # days -105..105
        values[105 + 15:] = rng.normal(0, 0.02 * np.sqrt(2.0), 91)
        report = variance_ratio_report({"X": (values, 105)}, windows)
        row = report[0]
        assert row.f_result.ratio == pytest.approx(2.0, abs=0.9)
        assert row.f_result.significant_5pct

    def test_ratio_is_post_over_pre(self):
        windows = EventWindows()
        rng = np.random.default_rng(47)
        values = rng.normal(0, 1.0, 221)  # days -110..110
        report = variance_ratio_report({"X": (values, 110)}, windows)
        pre = values[110 - 105:110 - 15 + 1]
        post = values[110 + 15:110 + 105 + 1]
        assert report[0].f_result.ratio == pytest.approx(
            post.var(ddof=1) / pre.var(ddof=1), rel=1e-12
        )

    def test_degenerate_firm_isolated(self):
        rng = np.random.default_rng(53)
        windows = EventWindows()
        good = rng.normal(0, 0.02, 211)
        flat = np.zeros(211)
        report = variance_ratio_report({"OK": (good, 105), "FLAT": (flat, 105)}, windows)
        by_id = {row.firm_id: row for row in report}
        assert by_id["OK"].error is None
        assert by_id["FLAT"].error is not None
        assert by_id["FLAT"].f_result is None
        assert len(report) == 2


class TestStudyFirm:
    def _panel_inputs(self, rng, effect=0.0):
        windows = EventWindows()
        day0 = 120  # the vectors run from day -120 to day 120
        T = 2 * day0 + 1
        loc = rng.normal(0, 0.01, T)
        us = rng.normal(0, 0.01, T)
        r = simulate_garch(
            GarchSimConfig(
                true_mean_coefficients=(0.0002, 0.6, 0.3),
                true_alpha0=0.02**2 * 0.07,
                true_alphas=(0.08,),
                true_gammas=(0.85,),
                seed=99,
            ),
            loc,
            us,
        )
        r[day0] += effect
        return r, loc, us, day0, windows

    def test_estimation_separation_and_shapes(self):
        rng = np.random.default_rng(59)
        r, loc, us, day0, windows = self._panel_inputs(rng)
        result = study_firm("X", r, loc, us, day0, windows, weight=1.0)
        assert result.ar.shape == (windows.event.length,)
        assert result.star.shape == (windows.event.length,)
        assert result.fit is not None
        # no leakage: noise over every day after the estimation window leaves the fit as it was
        after = day0 + windows.estimation.hi + 1
        noise = np.random.default_rng(60)
        noisy = [np.concatenate([v[:after], noise.normal(0, 0.02, v.shape[0] - after)]) for v in (r, loc, us)]
        refit = study_firm("X", *noisy, day0, windows, weight=1.0)
        assert refit.fit.spec == result.fit.spec
        np.testing.assert_array_equal(refit.fit.mean_coefficients, result.fit.mean_coefficients)
        np.testing.assert_array_equal(refit.fit.ols.coefficients, result.fit.ols.coefficients)
        assert refit.diagnostics == result.diagnostics
        assert not np.array_equal(refit.ar, result.ar)

    def test_insufficient_estimation_window(self):
        rng = np.random.default_rng(61)
        r, loc, us, day0, windows = self._panel_inputs(rng)
        keep = slice(day0 - 50, None)  # days -50..120
        with pytest.raises(WindowOutOfData, match=r"coverage \[-50, 120\] does not span \[-105, -15\]"):
            study_firm("X", r[keep], loc[keep], us[keep], 50, windows, weight=1.0)

    def test_uncovered_event_window(self):
        rng = np.random.default_rng(63)
        r, loc, us, day0, windows = self._panel_inputs(rng)
        keep = slice(None, day0 + 10)  # days -120..9
        with pytest.raises(WindowOutOfData, match=r"coverage \[-120, 9\] does not span \[-15, 15\]"):
            study_firm("X", r[keep], loc[keep], us[keep], day0, windows, weight=1.0)

    def test_mismatched_lengths(self):
        rng = np.random.default_rng(65)
        r, loc, us, day0, windows = self._panel_inputs(rng)
        with pytest.raises(MisalignedOffsets):
            study_firm("X", r, loc[:-1], us, day0, windows, weight=1.0)

    def test_day0_shock_shows_in_ar(self):
        rng = np.random.default_rng(67)
        r, loc, us, day0, windows = self._panel_inputs(rng, effect=0.05)
        result = study_firm("X", r, loc, us, day0, windows, weight=1.0)
        at0 = -windows.event.lo  # day 0's place in the event window
        assert result.ar[at0] == pytest.approx(0.05, abs=0.08)
        assert abs(result.star[at0]) > abs(result.ar[at0]) / 0.2


class TestRunEventStudy:
    """The whole study on in-memory series: loads, skips, weights, panel, variance report."""

    N_DAYS = 300
    CAPS = {"A": 3e9, "B": 1e9, "C": 2e9, "D": 4e9, "E": 5e9}

    def _inputs(self):
        dates = tuple(weekday_dates(date(2006, 1, 2), self.N_DAYS))
        rng = np.random.default_rng(71)
        loc = 0.0002 + 0.012 * rng.standard_normal(self.N_DAYS - 1)
        us = 0.0002 + 0.010 * rng.standard_normal(self.N_DAYS - 1)

        def closes(returns):
            return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))

        prices, records = {}, []
        for i, (code, cap) in enumerate(self.CAPS.items()):
            sim = simulate_garch(
                GarchSimConfig(
                    true_mean_coefficients=(0.0, 0.8, 0.4),
                    true_alpha0=0.02**2 * 0.07,
                    true_alphas=(0.08,),
                    true_gammas=(0.85,),
                    seed=100 + i,
                ),
                loc,
                us,
            )
            prices[code] = PriceSeries(code, dates, closes(sim))
            # D lists a month after the last date every series holds
            listing = dates[-1] + timedelta(days=30) if code == "D" else dates[150]
            records.append(replace(record(code, cap), us_listing_date=listing))

        def load_prices(rec):
            if rec.n_code == "B":
                raise OSError(f"{rec.price_file}: file not found")
            return prices[rec.n_code]

        sse = PriceSeries("sse", dates, closes(loc))
        nyse = PriceSeries("nyse", dates, closes(us))
        return records, load_prices, sse, nyse

    def test_skips_weights_panel_and_variance(self):
        records, load_prices, sse, nyse = self._inputs()
        windows = EventWindows()
        study = run_event_study(records, load_prices, sse, nyse, None, windows)

        assert list(study.skipped) == ["B", "D"]
        assert isinstance(study.skipped["B"], OSError)
        assert isinstance(study.skipped["D"], EventAfterPanelEnd)
        analyzed = [res.firm_id for res in study.firms]
        assert analyzed == ["A", "C", "E"]
        assert {res.firm_id: res.weight for res in study.firms} == cap_weights(records, analyzed)
        expected = aggregate(study.firms, windows)
        for field in fields(EventPanelResult):
            np.testing.assert_array_equal(getattr(study.panel, field.name), getattr(expected, field.name))
        assert [row.firm_id for row in study.variance] == analyzed
        assert study.windows is windows and study.usd is False

    def test_variance_windows_must_be_covered(self):
        # a pre-variance window that runs past the event window: F01 and F02
        # cover its start but not its end, so they are skipped, not tested on
        # a shortened window
        windows = EventWindows(pre_var=OffsetRange(-105, 160))
        records, sse, nyse, prices = simulate_bundle(3, 300, 0.0, 5)
        study = run_event_study(records, prices, sse, nyse, None, windows)
        assert {firm_id: str(exc) for firm_id, exc in study.skipped.items()} == {
            "F01": "coverage [-150, 148] does not span [-105, 160]",
            "F02": "coverage [-170, 128] does not span [-105, 160]",
        }
        assert [res.firm_id for res in study.firms] == ["F00"]
        (row,) = study.variance
        assert (row.firm_id, row.f_result.df_num, row.f_result.df_den) == ("F00", 90, 265)

    def test_firm_with_no_returns_is_skipped(self):
        # one close after the listing gives no returns: an empty coverage, a skip and no crash
        records, load_prices, sse, nyse = self._inputs()

        def one_close(rec):
            series = load_prices(rec)
            return PriceSeries(rec.n_code, series.dates[-1:], series.closes[-1:])

        study = run_event_study(records[:1], one_close, sse, nyse, None, EventWindows())
        assert {firm_id: str(exc) for firm_id, exc in study.skipped.items()} == {
            "A": "coverage [1, 0] does not span [-105, 105]"
        }
        assert study.panel is None

    def test_every_firm_skipped_leaves_no_panel(self):
        records, _, sse, nyse = self._inputs()

        def missing(rec):
            raise OSError(f"{rec.price_file}: file not found")

        # with FX: the result still records the windows and the USD mode it ran in
        fx = RateSeries(sse.dates, np.full(len(sse), 0.125))
        windows = EventWindows()
        study = run_event_study(records, missing, sse, nyse, fx, windows)
        assert study.firms == ()
        assert list(study.skipped) == list(self.CAPS)
        assert study.panel is None and study.variance is None
        assert study.windows is windows and study.usd is True


class TestNullRejections:
    def test_deterministic(self):
        counts = null_rejections(3, seed=900)
        assert null_rejections(3, seed=900) == counts
        assert counts["day0_z"].attempts == 3
        assert 0 < counts["variance"].attempts <= 30
        assert all(0 <= c.count <= c.attempts for c in counts.values())

    def test_clopper_pearson_bounds(self):
        # the closed forms at k = 0 and k = n, and the beta-tail definition between
        lo, hi = Rejections(0, 20).bounds()
        assert lo == 0.0 and hi == pytest.approx(1.0 - 0.025 ** (1 / 20), rel=1e-12)
        lo, hi = Rejections(20, 20).bounds()
        assert lo == pytest.approx(0.025 ** (1 / 20), rel=1e-12) and hi == 1.0
        lo, hi = Rejections(5, 100).bounds(confidence=0.9)
        assert float(mp.betainc(5, 96, 0, lo, regularized=True)) == pytest.approx(0.05, rel=1e-10)
        assert float(mp.betainc(6, 95, hi, 1, regularized=True)) == pytest.approx(0.05, rel=1e-10)


def same_fields(a, b) -> bool:
    """Whether two results hold the same values bit for bit, field by field, nested results too."""
    if is_dataclass(a):
        return type(a) is type(b) and all(same_fields(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, str) or a is None:
        return a == b
    return np.array_equal(a, b, equal_nan=True)


class TestManifestReversal:
    """A study of the reversed manifest is the study of the manifest, rows reversed."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_reversal_permutes_rows_and_keeps_the_panel(self, seed):
        records, sse, nyse, prices = simulate_bundle(10, 300, 0.0, seed)
        windows = EventWindows()
        forward = run_event_study(records, prices, sse, nyse, None, windows)
        backward = run_event_study(records[::-1], prices, sse, nyse, None, windows)

        # each firm's fit, returns and diagnostics are its own; only the cap
        # weights' shared total is summed in the other order
        assert len(backward.firms) == len(forward.firms)
        for a, b in zip(forward.firms, backward.firms[::-1]):
            assert same_fields(replace(a, weight=0.0), replace(b, weight=0.0))
            assert a.weight == pytest.approx(b.weight, rel=1e-15)
        assert list(backward.skipped) == list(forward.skipped)[::-1]
        assert {k: str(v) for k, v in backward.skipped.items()} == {k: str(v) for k, v in forward.skipped.items()}
        assert len(backward.variance) == len(forward.variance)
        for a, b in zip(forward.variance, backward.variance[::-1]):
            assert same_fields(a, b)

        assert np.array_equal(backward.panel.offsets, forward.panel.offsets)
        for name in ("aar", "car", "z", "cz_full_window"):
            np.testing.assert_allclose(getattr(backward.panel, name), getattr(forward.panel, name), rtol=0, atol=1e-12)


class TestIndexSwap:
    """Swapping the two index series swaps the OLS slopes and leaves every other OLS-side number alone.

    The GARCH mean coefficients, and so the ARs and Z, move by up to about
    1e-8: the optimizer fixes its optimum no closer than that, so inputs that
    differ by rounding move it that far.  Only the selected spec is compared
    on that side.
    """

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_swapped_indexes_swap_the_slopes(self, seed):
        records, sse, nyse, prices = simulate_bundle(10, 300, 0.0, seed)
        windows = EventWindows()
        base = run_event_study(records, prices, sse, nyse, None, windows)
        swapped = run_event_study(records, prices, nyse, sse, None, windows)

        assert [res.firm_id for res in swapped.firms] == [res.firm_id for res in base.firms]
        assert list(swapped.skipped) == list(base.skipped)
        for a, b in zip(base.firms, swapped.firms):
            assert b.fit.spec == a.fit.spec
            np.testing.assert_allclose(b.fit.ols.coefficients, a.fit.ols.coefficients[[0, 2, 1]], rtol=0, atol=1e-12)
            assert b.diagnostics.dw_statistic == pytest.approx(a.diagnostics.dw_statistic, rel=0, abs=1e-12)
            assert b.diagnostics.bg_p_value == pytest.approx(a.diagnostics.bg_p_value, rel=0, abs=1e-10)
        # the variance rows read the firms' own returns alone
        assert len(swapped.variance) == len(base.variance)
        for a, b in zip(base.variance, swapped.variance):
            assert same_fields(a, b)


class TestPriceUnit:
    """A firm's closes in another unit leave the other firms bit for bit, and its own OLS side to rounding.

    Its log returns differ from the original ones by rounding; its GARCH fit
    moves by up to about 1e-8 (see TestIndexSwap), so on that side only the
    spec and the `converged` flag are compared.
    """

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        firm=st.integers(min_value=0, max_value=9),
        log10_c=st.floats(min_value=-3.0, max_value=4.0),
    )
    def test_rescaled_closes_move_one_firm_by_rounding(self, seed, firm, log10_c):
        records, sse, nyse, prices = simulate_bundle(10, 300, 0.0, seed)
        code, c = records[firm].n_code, 10.0**log10_c

        def rescaled(rec):
            series = prices(rec)
            return replace(series, closes=series.closes * c) if rec.n_code == code else series

        windows = EventWindows()
        base = run_event_study(records, prices, sse, nyse, None, windows)
        moved = run_event_study(records, rescaled, sse, nyse, None, windows)

        assert [res.firm_id for res in moved.firms] == [res.firm_id for res in base.firms]
        assert list(moved.skipped) == list(base.skipped)
        for a, b in zip(base.firms, moved.firms):
            if a.firm_id != code:
                assert same_fields(a, b)
                continue
            assert (b.fit.spec, b.fit.converged) == (a.fit.spec, a.fit.converged)
            np.testing.assert_allclose(b.fit.ols.coefficients, a.fit.ols.coefficients, rtol=0, atol=1e-12)
            assert b.diagnostics.dw_statistic == pytest.approx(a.diagnostics.dw_statistic, rel=0, abs=1e-12)
            assert b.diagnostics.bg_p_value == pytest.approx(a.diagnostics.bg_p_value, rel=0, abs=1e-10)
        assert len(moved.variance) == len(base.variance)
        for a, b in zip(base.variance, moved.variance):
            if a.firm_id != code or a.f_result is None:
                assert same_fields(a, b)
            else:
                assert b.f_result.ratio == pytest.approx(a.f_result.ratio, rel=1e-12, abs=0.0)
