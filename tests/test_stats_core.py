"""Log returns and the two-sided variance F-test."""

from datetime import date

import mpmath as mp
import numpy as np
import pytest

from crosslist.errors import DegenerateSample, SeriesTooShort
from crosslist.market_data import PriceSeries
from crosslist.stats_core import ReturnSeries, log_returns, variance_f_test

from .test_market_data import weekday_dates

# ln(1.1) evaluated at 30 digits with mpmath, rounded to double
LN_1_1 = 0.09531017980432487


def price_series(closes, start=date(2006, 1, 2)):
    closes = np.asarray(closes, dtype=float)
    dates = tuple(weekday_dates(start, closes.shape[0]))
    return PriceSeries("x", dates, closes)


def return_series(values, start=date(2006, 1, 2)):
    values = np.asarray(values, dtype=float)
    dates = tuple(weekday_dates(start, values.shape[0]))
    return ReturnSeries("x", dates, values)


class TestLogReturns:
    def test_constant_prices(self):
        out = log_returns(price_series([100.0, 100.0, 100.0]))
        assert out.values.tolist() == [0.0, 0.0]
        assert len(out.dates) == 2

    def test_ten_percent_move(self):
        out = log_returns(price_series([100.0, 110.0]))
        assert out.values[0] == pytest.approx(LN_1_1, rel=1e-15)

    def test_dated_by_later_observation(self):
        prices = price_series([100.0, 101.0, 102.0])
        out = log_returns(prices)
        assert out.dates == prices.dates[1:]

    def test_telescoping_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            closes = np.exp(rng.normal(0.0, 0.5, size=rng.integers(2, 400)))
            prices = price_series(closes)
            total = log_returns(prices).values.sum()
            assert total == pytest.approx(np.log(closes[-1] / closes[0]), rel=1e-12, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            log_returns(price_series([100.0]))


class TestVarianceFTest:
    def test_identical_samples(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = variance_f_test(x, x)
        assert result.ratio == pytest.approx(1.0, rel=1e-12)
        assert result.p_value == pytest.approx(1.0, rel=1e-9)
        assert result.df_num == 4 and result.df_den == 4
        assert not result.significant_5pct

    def test_variance_four_detected(self):
        # 200 seeds: mean ratio near 4, every pair significant at n=1000
        rng = np.random.default_rng(21)
        ratios = []
        for _ in range(200):
            a = rng.normal(0.0, 2.0, 1000)
            b = rng.normal(0.0, 1.0, 1000)
            result = variance_f_test(a, b)
            ratios.append(result.ratio)
            assert result.p_value < 0.05
        assert 3.6 <= np.mean(ratios) <= 4.4

    def test_swap_reciprocity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = rng.normal(0, rng.uniform(0.5, 3.0), rng.integers(5, 200))
            b = rng.normal(0, rng.uniform(0.5, 3.0), rng.integers(5, 200))
            ab = variance_f_test(a, b)
            ba = variance_f_test(b, a)
            assert ab.ratio * ba.ratio == pytest.approx(1.0, abs=1e-12)
            assert ab.p_value == pytest.approx(ba.p_value, rel=1e-9)

    @pytest.mark.parametrize(
        "n_a, n_b, target",
        [
            (2, 2, 0.7),
            (10, 20, 0.2),
            (10, 20, 3.5),
            (60, 60, 1.3),
            (30, 90, 0.05),
            (90, 30, 12.0),
            (250, 250, 0.5),
        ],
    )
    def test_p_value_matches_incomplete_beta_oracle(self, n_a, n_b, target):
        # P(F <= f) = I_x(d1/2, d2/2) with x = d1 f / (d1 f + d2), at 50 digits;
        # ratios on both sides of 1, p-values from 0.89 down to 2e-13
        rng = np.random.default_rng(n_a * 1000 + n_b)
        a = rng.standard_normal(n_a)
        b = rng.standard_normal(n_b)
        a = (a - a.mean()) / a.std(ddof=1) * np.sqrt(target)
        b = (b - b.mean()) / b.std(ddof=1)
        result = variance_f_test(a, b)
        assert result.ratio == pytest.approx(target, rel=1e-12)
        d1, d2 = n_a - 1, n_b - 1
        with mp.workdps(50):
            f = mp.mpf(result.ratio)
            cdf = mp.betainc(mp.mpf(d1) / 2, mp.mpf(d2) / 2, 0, d1 * f / (d1 * f + d2), regularized=True)
            sf = mp.betainc(mp.mpf(d2) / 2, mp.mpf(d1) / 2, 0, d2 / (d1 * f + d2), regularized=True)
            expected = float(min(1, 2 * min(cdf, sf)))
        assert result.p_value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateSample):
            variance_f_test([1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSample):
            variance_f_test([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestReturnSeriesInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            return_series([0.1, np.nan])

    def test_rejects_length_mismatch(self):
        dates = tuple(weekday_dates(date(2006, 1, 2), 3))
        with pytest.raises(ValueError):
            ReturnSeries("x", dates, np.array([0.1, 0.2]))
