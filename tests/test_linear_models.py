"""OLS fits, autocorrelation diagnostics, CAPM, and forecast standard errors."""

import mpmath as mp
import numpy as np
import pytest

from crosslist.errors import (
    AllZeroResiduals,
    ExactFitNoVariance,
    RankDeficient,
    TooFewObservations,
    TooManyLags,
)
from crosslist.linear_models import (
    breusch_godfrey,
    capm_expected_return,
    classify_durbin_watson,
    diagnostics_report,
    durbin_watson,
    ols_fit,
    prediction_se,
)

from .support import ols_oracle


class TestOlsFit:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = ols_fit(x, [x])
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.betas[0] == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, rel=1e-12)
        assert fit.s2 == 0.0

    def test_exact_affine(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = ols_fit(2.0 * x + 3.0, [x])
        assert fit.alpha == pytest.approx(3.0, rel=1e-12)
        assert fit.betas[0] == pytest.approx(2.0, rel=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x1 = rng.normal(0, 1, 50)
            x2 = rng.normal(0, 1, 50)
            y = 0.3 - 1.2 * x1 + 0.7 * x2 + rng.normal(0, 0.5, 50)
            fit = ols_fit(y, [x1, x2])
            expected = ols_oracle(y, [x1, x2])
            np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(23)
        x1 = rng.normal(0, 1, 80)
        x2 = rng.normal(0, 1, 80)
        y = 1.0 + x1 - x2 + rng.normal(0, 1, 80)
        fit = ols_fit(y, [x1, x2])
        scale = np.linalg.norm(fit.residuals)
        assert abs(fit.residuals.sum()) <= 1e-8 * max(scale, 1.0)
        for col in (x1, x2):
            assert abs(col @ fit.residuals) <= 1e-8 * max(np.linalg.norm(col) * scale, 1.0)

    def test_self_regression_property(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            y = rng.normal(0, rng.uniform(0.1, 5.0), rng.integers(10, 200))
            fit = ols_fit(y, [y])
            assert fit.betas[0] == pytest.approx(1.0, abs=1e-10)
            assert fit.alpha == pytest.approx(0.0, abs=1e-10)

    def test_rank_deficient(self):
        x = np.arange(10.0)
        with pytest.raises(RankDeficient):
            ols_fit(np.arange(10.0), [x, 2.0 * x])

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            ols_fit([1.0, 2.0], [[1.0, 2.0]])

    def test_s2_uses_n_minus_k(self):
        rng = np.random.default_rng(31)
        x = rng.normal(0, 1, 40)
        y = x + rng.normal(0, 1, 40)
        fit = ols_fit(y, [x])
        rss = fit.residuals @ fit.residuals
        assert fit.s2 == pytest.approx(rss / (40 - 2), rel=1e-12)


class TestDurbinWatson:
    def test_alternating_closed_form(self):
        n = 100
        e = np.tile([1.0, -1.0], n // 2)
        assert durbin_watson(e) == pytest.approx(4.0 * (n - 1) / n, rel=1e-14)

    def test_constant_residuals(self):
        assert durbin_watson(np.full(50, 3.0)) == 0.0

    def test_all_zero(self):
        with pytest.raises(AllZeroResiduals):
            durbin_watson(np.zeros(10))

    def test_range_bounds(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            e = rng.normal(0, 1, rng.integers(2, 300))
            assert 0.0 <= durbin_watson(e) <= 4.0

    def test_classification(self):
        assert classify_durbin_watson(1.2) == "positive autocorrelation suspected"
        assert classify_durbin_watson(2.0) == "none"
        assert classify_durbin_watson(3.1) == "negative autocorrelation suspected"


class TestBreuschGodfrey:
    def _fit(self, rng, n, rho=0.0):
        x = rng.normal(0, 1, n)
        e = np.empty(n)
        e[0] = rng.normal()
        for t in range(1, n):
            e[t] = rho * e[t - 1] + rng.normal()
        y = 1.0 + 0.5 * x + e
        return ols_fit(y, [x])

    def test_size_under_null(self):
        # iid residuals: the 5% rejection rate must hold within 3 points
        rng = np.random.default_rng(41)
        rejections = 0
        for _ in range(500):
            fit = self._fit(rng, 500)
            if breusch_godfrey(fit, lags=1).p_value < 0.05:
                rejections += 1
        assert 0.02 <= rejections / 500 <= 0.08

    def test_power_against_ar1(self):
        rng = np.random.default_rng(43)
        strong = 0
        for _ in range(100):
            fit = self._fit(rng, 500, rho=0.9)
            if breusch_godfrey(fit, lags=1).p_value < 0.01:
                strong += 1
        assert strong / 100 > 0.95

    @pytest.mark.parametrize(
        "seed, n, rho, lags",
        [(61, 200, 0.0, 1), (62, 200, 0.0, 2), (63, 120, 0.4, 3), (64, 300, 0.6, 1), (65, 500, 0.9, 2)],
    )
    def test_p_value_matches_incomplete_gamma_oracle(self, seed, n, rho, lags):
        # chi-squared survival function Q(lags/2, LM/2), at 50 digits; the five
        # points give p-values from 0.56 down to 7e-83
        fit = self._fit(np.random.default_rng(seed), n, rho)
        result = breusch_godfrey(fit, lags=lags)
        with mp.workdps(50):
            half_lm = mp.mpf(result.lm_statistic) / 2
            expected = float(mp.gammainc(mp.mpf(lags) / 2, half_lm, mp.inf, regularized=True))
        assert result.p_value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_residuals_propagates(self):
        x = np.arange(10.0)
        fit = ols_fit(2.0 * x, [x])
        with pytest.raises(AllZeroResiduals):
            breusch_godfrey(fit, lags=1)

    def test_too_many_lags(self):
        rng = np.random.default_rng(47)
        fit = self._fit(rng, 10)
        with pytest.raises(TooManyLags):
            breusch_godfrey(fit, lags=8)

    def test_report_assembly(self):
        rng = np.random.default_rng(53)
        fit = self._fit(rng, 200)
        report = diagnostics_report(fit, lags=2)
        assert 0.0 <= report.dw_statistic <= 4.0
        assert report.dw_statistic == durbin_watson(fit.residuals)
        bg = breusch_godfrey(fit, lags=2)
        assert (report.bg_lm_statistic, report.bg_p_value) == (bg.lm_statistic, bg.p_value)
        assert report.heteroskedastic_5pct == (report.bg_p_value < 0.05)


class TestCapm:
    def test_zero_beta(self):
        assert capm_expected_return(0.0, 0.003, 0.01) == pytest.approx(0.003)

    def test_unit_beta(self):
        assert capm_expected_return(1.0, 0.003, 0.01) == pytest.approx(0.01)

    def test_affine_in_beta(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            rf, mm = rng.normal(0, 0.01, 2)
            b1, b2 = rng.normal(0, 3, 2)
            e = lambda b: capm_expected_return(b, rf, mm)
            assert e(b1 + b2) - e(b1) - e(b2) + e(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_identity_invariant(self):
        beta, risk_free, market_mean = 2.5, 0.002, -0.004
        assert capm_expected_return(beta, risk_free, market_mean) == risk_free + beta * (market_mean - risk_free)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            capm_expected_return(float("nan"), 0.0, 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda fit: ols_fit(np.zeros(10), [np.zeros(10), np.zeros(9)]), "all regressors must have the same length as y"),
        (lambda fit: durbin_watson([1.0]), "need >= 2 residuals, got 1"),
        (lambda fit: breusch_godfrey(fit, lags=0), "lags must be >= 1, got 0"),
        (lambda fit: prediction_se(fit, [0.0, 0.0, 0.0]), r"new_rows must hold rows of 2 entries, got shape \(3,\)"),
    ],
    ids=["short-regressor", "one-residual", "zero-lags", "row-too-wide"],
)
def test_bad_shape_or_lags_is_value_error(call, message):
    rng = np.random.default_rng(71)
    x1, x2 = rng.standard_normal(40), rng.standard_normal(40)
    fit = ols_fit(0.5 * x1 + rng.standard_normal(40), [x1, x2])
    with pytest.raises(ValueError, match=message):
        call(fit)


class TestPredictionSe:
    def test_matches_textbook_single_regressor(self):
        # s * sqrt(1 + 1/L + (x - xbar)^2 / sum((x_k - xbar)^2))
        rng = np.random.default_rng(61)
        x = rng.normal(0, 1, 90)
        y = 0.5 + 2.0 * x + rng.normal(0, 0.7, 90)
        fit = ols_fit(y, [x])
        s = np.sqrt(fit.s2)
        xbar = x.mean()
        ssx = np.sum((x - xbar) ** 2)
        x_new = np.array([-2.0, 0.0, 0.37, 5.0])
        expected = s * np.sqrt(1.0 + 1.0 / 90 + (x_new - xbar) ** 2 / ssx)
        for value, want in zip(x_new, expected):
            assert prediction_se(fit, [value]) == pytest.approx(want, rel=1e-10)
        # the same rows at once, as standardize evaluates an event window
        np.testing.assert_allclose(prediction_se(fit, x_new[:, None]), expected, rtol=1e-10)

    def test_centered_forecast_limit(self):
        rng = np.random.default_rng(67)
        x1 = rng.normal(0, 1, 5000)
        x2 = rng.normal(0, 1, 5000)
        y = x1 - x2 + rng.normal(0, 1, 5000)
        fit = ols_fit(y, [x1, x2])
        at_means = prediction_se(fit, [x1.mean(), x2.mean()])
        assert at_means == pytest.approx(np.sqrt(fit.s2 * (1.0 + 1.0 / 5000)), rel=1e-6)

    def test_floor_and_minimum_at_means(self):
        rng = np.random.default_rng(71)
        x1 = rng.normal(0, 1, 60)
        x2 = rng.normal(0, 1, 60)
        y = 2.0 + x1 + 0.5 * x2 + rng.normal(0, 1, 60)
        fit = ols_fit(y, [x1, x2])
        means = np.array([x1.mean(), x2.mean()])
        base = prediction_se(fit, means)
        assert base >= np.sqrt(fit.s2)
        for _ in range(50):
            row = means + rng.normal(0, 1, 2)
            se = prediction_se(fit, row)
            assert se >= np.sqrt(fit.s2)
            assert se >= base - 1e-15

    def test_exact_fit_refused(self):
        x = np.arange(10.0)
        fit = ols_fit(3.0 * x + 1.0, [x])
        with pytest.raises(ExactFitNoVariance):
            prediction_se(fit, [2.0])
