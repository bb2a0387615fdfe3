"""GARCH market-model estimation, lag selection, and the simulation oracle."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import OptimizeResult, minimize, rosen, rosen_der

from crosslist.errors import InvalidSeries, NonFiniteLikelihood, NonStationaryParameters, SeriesTooShort
from crosslist.event_study import EventWindows, _window
from crosslist.garch import (
    _C1,
    _C2,
    GarchFit,
    GarchSimConfig,
    GarchSpec,
    _bfgs,
    _encode,
    _Likelihood,
    _loglik,
    _natural,
    _transformed_loglik,
    _variance_filter,
    _wolfe_step,
    fit_garch_market_model,
    select_lags,
    simulate_bundle,
    simulate_garch,
    unconditional_variance,
)
from crosslist.linear_models import ols_fit
from crosslist.market_data import align, build_event_frame

from .support import garch_loglik_reference, simulate_garch_values_reference


def make_indexes(rng, n):
    return 0.01 * rng.standard_normal(n), 0.01 * rng.standard_normal(n)


def counted_runs(monkeypatch) -> list:
    """The results of every optimizer run a fit makes from here on, in order."""
    runs = []

    def counted(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("crosslist.garch.minimize", counted)
    return runs


def conditional_variances(eps, alpha0, alphas, gammas, h0):
    """The conditional variances `_loglik` filters for residuals eps: y = eps, a zero mean equation."""
    lik = _Likelihood(np.asarray(eps, dtype=float), np.zeros((len(eps), 3)), len(alphas), len(gammas), h0)
    _loglik(lik, np.concatenate([np.zeros(3), [alpha0], alphas, gammas]))
    return lik.h.copy()


def sim_config(seed, alpha0=4e-5, alphas=(0.1,), gammas=(0.8,), beta=(0.0002, 0.6, 0.3)):
    return GarchSimConfig(
        true_mean_coefficients=beta,
        true_alpha0=alpha0,
        true_alphas=alphas,
        true_gammas=gammas,
        seed=seed,
    )


class TestConditionalVariances:
    def test_matches_naive_recursion(self):
        # independent oracle: the textbook loop, lag by lag
        def naive(eps, a0, alphas, gammas, h0):
            T = eps.shape[0]
            q, p = len(alphas), len(gammas)
            if p == 0 and q == 0:
                return np.full(T, a0)
            h = np.empty(T)
            for t in range(T):
                if t == 0:
                    h[t] = h0
                    continue
                v = a0
                for j in range(1, q + 1):
                    v += alphas[j - 1] * (eps[t - j] ** 2 if t - j >= 0 else h0)
                for k in range(1, p + 1):
                    v += gammas[k - 1] * (h[t - k] if t - k >= 0 else h0)
                h[t] = v
            return h

        rng = np.random.default_rng(2)
        for p in range(3):
            for q in range(3):
                alphas = [0.06, 0.03][:q]
                gammas = [0.65, 0.1][:p]
                eps = rng.standard_normal(64)
                got = conditional_variances(eps, 0.25, alphas, gammas, 1.4)
                np.testing.assert_allclose(got, naive(eps, 0.25, alphas, gammas, 1.4), rtol=1e-12)

    def test_positive_for_stationary_parameters(self):
        rng = np.random.default_rng(3)
        eps = rng.standard_normal(200)
        h = conditional_variances(eps, 1e-6, [0.1], [0.85], 0.5)
        assert np.all(h > 0)


class TestVarianceFilter:
    @staticmethod
    def naive(gammas, x):
        # independent oracle: y_t = x_t + sum_k gammas[k-1] * y_{t-k}, zero before t = 0
        y = np.array(x, dtype=float)
        for t in range(y.shape[0]):
            for k in range(1, len(gammas) + 1):
                if t - k >= 0:
                    y[t] = y[t] + gammas[k - 1] * y[t - k]
        return y

    @pytest.mark.parametrize("gammas", [[0.85], [0.6, 0.3]])
    @pytest.mark.parametrize("T", [1, 2, 3, 91])
    @pytest.mark.parametrize("columns", [None, 9])
    def test_matches_plain_recursion(self, gammas, T, columns):
        rng = np.random.default_rng(T)
        x = rng.standard_normal(T if columns is None else (T, columns))
        got = _variance_filter(np.array(gammas), x)
        assert got.shape == x.shape
        # componentwise bound of a triangular solve: 1e-15 relative to the
        # recursion run on |x|, as signed inputs cancel
        scale = self.naive(gammas, np.abs(x))
        assert np.all(np.abs(got - self.naive(gammas, x)) <= 1e-15 * scale)

    @staticmethod
    def naive_backward(gammas, x):
        # independent oracle for L'y = x: y_t = x_t + sum_k gammas[k-1] * y_{t+k}, zero after T - 1
        y = np.array(x, dtype=float)
        for t in range(y.shape[0] - 1, -1, -1):
            for k in range(1, len(gammas) + 1):
                if t + k < y.shape[0]:
                    y[t] = y[t] + gammas[k - 1] * y[t + k]
        return y

    @pytest.mark.parametrize("gammas", [[0.85], [0.6, 0.3]])
    @pytest.mark.parametrize("T", [1, 2, 3, 91])
    @pytest.mark.parametrize("columns", [None, 9])
    def test_transposed_matches_backward_recursion(self, gammas, T, columns):
        rng = np.random.default_rng(T)
        x = rng.standard_normal(T if columns is None else (T, columns))
        got = _variance_filter(np.array(gammas), x, "T")
        assert got.shape == x.shape
        scale = self.naive_backward(gammas, np.abs(x))
        assert np.all(np.abs(got - self.naive_backward(gammas, x)) <= 1e-15 * scale)


def central_difference(f, x, rel=1e-6):
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = rel * max(abs(x[i]), 1.0)
        g[i] = (f(x + e) - f(x - e)) / (2.0 * e[i])
    return g


SPECS = [(p, q) for p in range(3) for q in range(3)]


class TestScore:
    # unit-scale returns, as the optimizer sees them, with h0 away from 1
    H0 = 1.3

    @staticmethod
    def window():
        rng = np.random.default_rng(61)
        X = np.column_stack([np.ones(91), rng.standard_normal(91), rng.standard_normal(91)])
        return X @ [0.1, 0.5, -0.3] + rng.standard_normal(91), X

    @staticmethod
    def natural_point(p, q):
        return np.concatenate([[0.05, 0.45, -0.25, 0.2], [0.12, 0.06][:q], [0.55, 0.15][:p]])

    @pytest.mark.parametrize("p,q", SPECS)
    def test_natural_score_matches_central_differences(self, p, q):
        y, X = self.window()
        params = self.natural_point(p, q)
        lik = _Likelihood(y, X, q, p, self.H0)
        ll, grad = _loglik(lik, params, score=True)
        assert ll == _loglik(lik, params)
        numeric = central_difference(lambda v: _loglik(lik, v), params)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("p,q", SPECS)
    def test_transformed_score_matches_central_differences(self, p, q):
        y, X = self.window()
        params = self.natural_point(p, q)
        theta = _encode(params[:3], params[3], params[4 : 4 + q], params[4 + q :])
        lik = _Likelihood(y, X, q, p, self.H0)
        _, grad = _transformed_loglik(lik, theta)
        numeric = central_difference(lambda t: _transformed_loglik(lik, t)[0], theta)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-6)

    def test_clipped_coordinates_have_zero_gradient(self):
        y, X = self.window()
        params = self.natural_point(2, 2)
        lik = _Likelihood(y, X, 2, 2, self.H0)
        for log_alpha0 in (61.0, -601.0):  # log alpha0 beyond its cap of 60, and below its floor of -600
            theta = _encode(params[:3], params[3], params[4:6], params[6:])
            theta[3] = log_alpha0
            theta[4] = -45.0  # alphas[0] logit beyond the clip
            _, grad = _transformed_loglik(lik, theta)
            assert grad[3] == 0.0 and grad[4] == 0.0
            numeric = central_difference(lambda t: _transformed_loglik(lik, t)[0], theta)
            assert numeric[3] == 0.0 and numeric[4] == 0.0
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("p,q", SPECS)
    def test_zero_alpha0_is_nan(self, p, q):
        y, X = self.window()
        params = self.natural_point(p, q)
        params[3] = 0.0
        lik = _Likelihood(y, X, q, p, self.H0)
        assert math.isnan(_loglik(lik, params))
        ll, grad = _loglik(lik, params, score=True)
        assert math.isnan(ll) and grad.shape == params.shape and np.isnan(grad).all()


class TestAdjointScore:
    """`_loglik` against the forward-mode reference, which filters the T x k derivative matrix."""

    @staticmethod
    def points(p, q, n=24):
        # seeded windows and parameters; every third point is near a face: a
        # lag coefficient down to 1e-12, the slack 1 - sum down to 1e-9, or alpha0 down to 1e-15
        rng = np.random.default_rng(100 + 10 * p + q)
        for i in range(n):
            X = np.column_stack([np.ones(91), rng.standard_normal(91), rng.standard_normal(91)])
            y = X @ rng.normal(0.0, 0.5, 3) + rng.uniform(0.5, 2.0) * rng.standard_normal(91)
            c = rng.dirichlet(np.ones(q + p + 1))[: q + p]
            alpha0 = 10.0 ** rng.uniform(-3.0, 0.0)
            if i % 3 == 2:
                face = i // 3 % 3
                if face == 0 and q + p:
                    c[rng.integers(q + p)] = 10.0 ** rng.uniform(-12.0, -6.0)
                elif face == 1 and q + p:
                    c *= (1.0 - 10.0 ** rng.uniform(-9.0, -4.0)) / c.sum()
                else:
                    alpha0 = 10.0 ** rng.uniform(-15.0, -10.0)
            yield y, X, rng.uniform(0.5, 2.0), np.concatenate([rng.normal(0.0, 0.5, 3), [alpha0], c])

    @pytest.mark.parametrize("p,q", SPECS)
    def test_matches_forward_mode_reference(self, p, q):
        for y, X, h0, params in self.points(p, q):
            ll_ref, g_ref = garch_loglik_reference(params, y, X, q, p, h0, score=True)
            lik = _Likelihood(y, X, q, p, h0)
            ll, g = _loglik(lik, params, score=True)
            assert ll == ll_ref and _loglik(lik, params) == ll_ref
            assert np.all(np.abs(g - g_ref) <= 1e-12 * (1.0 + np.abs(g_ref).max()))

    @pytest.mark.parametrize("p,q", SPECS)
    def test_lag_views_are_read_only_slices(self, p, q):
        y, X, h0, params = next(self.points(p, q))
        lik = _Likelihood(y, X, q, p, h0)
        for params in (params, params * 1.01):  # a second evaluation refreshes the views
            _loglik(lik, params)
            eps = y - X @ params[:3]
            for j in range(1, q + 1):
                np.testing.assert_array_equal(lik.e2_lags[:, j - 1], np.r_[np.full(j, h0), (eps * eps)[:-j]])
            for k in range(1, p + 1):
                np.testing.assert_array_equal(lik.h_lags[:, k - 1], np.r_[np.full(k, h0), lik.h[:-k]])
        assert lik.e2_lags.shape == (91, q) and lik.h_lags.shape == (91, p)
        for view in (lik.e2_lags, lik.h_lags):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[...] = 0.0


class TestDegenerateSpec:
    def test_matches_homoskedastic_mle(self):
        rng = np.random.default_rng(5)
        loc, us = make_indexes(rng, 400)
        y = 0.0003 + 0.5 * loc + 0.2 * us + 0.02 * rng.standard_normal(400)
        fit = fit_garch_market_model(y, loc, us, GarchSpec(0, 0))
        base = ols_fit(y, [loc, us])
        np.testing.assert_allclose(fit.mean_coefficients, base.coefficients, rtol=1e-6)
        rss = float(base.residuals @ base.residuals)
        sigma2 = rss / 400
        assert fit.alpha0 == pytest.approx(sigma2, rel=1e-12)
        expected_ll = -400 / 2 * (np.log(2 * np.pi) + np.log(sigma2) + 1.0)
        assert fit.log_likelihood == pytest.approx(expected_ll, rel=1e-12)
        assert np.all(fit.conditional_variances == sigma2)
        assert fit.converged


class TestSimulateGarch:
    def test_no_persistence_is_iid_gaussian(self):
        rng = np.random.default_rng(7)
        loc, us = make_indexes(rng, 20000)
        config = sim_config(seed=1, alpha0=4e-4, alphas=(), gammas=())
        sim = simulate_garch(config, loc, us)
        eps = sim - (0.0002 + 0.6 * loc + 0.3 * us)
        assert eps.mean() == pytest.approx(0.0, abs=3 * 0.02 / np.sqrt(20000))
        assert eps.var() == pytest.approx(4e-4, rel=0.05)

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(9)
        loc, us = make_indexes(rng, 500)
        a = simulate_garch(sim_config(seed=33), loc, us)
        b = simulate_garch(sim_config(seed=33), loc, us)
        assert a.tolist() == b.tolist()

    # T = 20 outputs of the numpy-scalar recursion this simulator replaced;
    # the Python-float recursion runs the same operations, so they match exactly
    PINNED = {
        ((0.07, 0.05), (0.5, 0.3), 2024): [
            0.014205939092743846, 0.028936972286945258, 0.020285086031368357,
            -0.02961949492261793, -0.038565284164348165, -0.002397613664560304,
            0.017588731327397182, 0.00970063819840232, 0.03991293313465572,
            0.01791226081588148, 0.016291733295993104, -0.015492293886651812,
            -0.02281930341534995, 0.03758203956040764, 0.005635407808762826,
            0.024326371042078767, -0.024698329828296145, -0.002862681264493695,
            -0.021179167481253824, -0.008632494432230882,
        ],
        ((), (), 2025): [
            -0.02284844301766407, -0.007688195337455551, -0.01031400254306453,
            -0.013099536912701479, -0.020454247000980245, 0.0007776023762683928,
            -0.007920613255937587, -0.0004797888474947628, 0.003217399188921442,
            0.0015738532116207182, -0.0005791664568077906, 0.005787487930136225,
            0.005856920589230455, 0.007304270327925794, -0.005982357211117627,
            0.0029285134029504297, 0.0020741661613795934, 0.02587422566665867,
            0.004049159919236848, 0.017152897118971965,
        ],
    }

    @pytest.mark.parametrize("key", list(PINNED), ids=["garch22", "homoskedastic"])
    def test_pinned_output(self, key):
        alphas, gammas, seed = key
        loc, us = np.linspace(-0.02, 0.02, 20), np.linspace(0.01, -0.01, 20)
        sim = simulate_garch(sim_config(seed=seed, alphas=alphas, gammas=gammas), loc, us)
        assert sim.tolist() == self.PINNED[key]

    @pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_branching_loop(self, p, q):
        # the per-day loop with explicit pre-sample branches; equal bit for bit
        alphas = ((), (0.1,), (0.07, 0.05))[q]
        gammas = ((), (0.8,), (0.5, 0.3))[p]
        for seed in range(40, 45):
            loc, us = make_indexes(np.random.default_rng(seed), 4999)
            config = sim_config(seed=seed, alphas=alphas, gammas=gammas)
            expected = simulate_garch_values_reference(config, loc, us)
            assert simulate_garch(config, loc, us).tolist() == expected.tolist()

    @pytest.mark.parametrize("p,q", [(0, 2), (2, 0)])
    def test_matches_branching_loop_one_sided(self, p, q):
        # two lags on one side and none on the other: both sides run on padded zeros
        alphas, gammas = ((0.07, 0.05), ()) if q else ((), (0.5, 0.3))
        for seed in range(40, 45):
            loc, us = make_indexes(np.random.default_rng(seed), 4999)
            config = sim_config(seed=seed, alphas=alphas, gammas=gammas)
            expected = simulate_garch_values_reference(config, loc, us)
            assert simulate_garch(config, loc, us).tolist() == expected.tolist()

    def test_non_stationary_rejected(self):
        with pytest.raises(NonStationaryParameters):
            sim_config(seed=1, alphas=(0.3,), gammas=(0.7,))
        with pytest.raises(NonStationaryParameters):
            sim_config(seed=1, alpha0=-1.0)

    def test_length_must_match_indexes(self):
        rng = np.random.default_rng(11)
        loc, us = make_indexes(rng, 100)
        with pytest.raises(InvalidSeries, match="index returns must be finite, non-empty and of equal length"):
            simulate_garch(sim_config(seed=1), loc, us[:99])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "empty"])
    def test_non_finite_or_empty_indexes_rejected(self, bad):
        loc, us = make_indexes(np.random.default_rng(11), 100)
        if bad == "empty":
            pairs = [([], [])]
        else:
            pairs = [(np.where(np.arange(100) == 7, bad, loc), us), (loc, np.where(np.arange(100) == 7, bad, us))]
        for pair in pairs:
            with pytest.raises(InvalidSeries, match="index returns must be finite, non-empty and of equal length"):
                simulate_garch(sim_config(seed=1), *pair)


class TestFitRecovery:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(13)
        for seed in (101, 202, 303):
            loc, us = make_indexes(rng, 3000)
            sim = simulate_garch(sim_config(seed=seed, alpha0=4e-5), loc, us)
            fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 1))
            assert abs(fit.alphas[0] - 0.1) < 0.05
            assert abs(fit.gammas[0] - 0.8) < 0.05
            assert np.all(fit.conditional_variances > 0)
            assert fit.persistence < 1.0
            assert fit.converged

    def test_not_converged_when_optimizer_fails_without_moving(self, monkeypatch):
        def stalled(fun, x0, **kwargs):
            f, g = fun(x0)
            return OptimizeResult(x=x0, fun=f, jac=g, success=False, nfev=1, message="stalled")

        monkeypatch.setattr("crosslist.garch.minimize", stalled)
        rng = np.random.default_rng(13)
        loc, us = make_indexes(rng, 3000)
        sim = simulate_garch(sim_config(seed=101, alpha0=4e-5), loc, us)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 1))
        assert not fit.converged
        assert fit.alphas[0] == pytest.approx(0.05) and fit.gammas[0] == pytest.approx(0.90)

    def test_lag_trapped_on_simplex_face_reenters(self):
        # one BFGS run drives alphas[0] to 1 and leaves gammas[1] near 1e-10,
        # where the simplex map's gradient vanishes though the likelihood
        # still rises into the interior (by 0.9 at the re-entered fit)
        rng = np.random.default_rng(8)
        loc, us = make_indexes(rng, 91)
        sim = simulate_garch(sim_config(seed=8), loc, us)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(2, 2))
        assert fit.gammas[1] > 0.05

    def test_stalled_run_restarts(self):
        # one BFGS run ends on a failed line search, 0.24 short in log-likelihood
        rng = np.random.default_rng(9)
        loc, us = make_indexes(rng, 91)
        sim = simulate_garch(sim_config(seed=9), loc, us)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 2))
        assert fit.converged

    def test_face_trapped_run_reenters(self, monkeypatch):
        # the first run ends successfully with alphas[0] at 1 and both gammas
        # below 1e-12, on simplex faces, although the likelihood rises 1.67
        # into the interior; the re-entered run finds that rise
        runs = counted_runs(monkeypatch)
        rng = np.random.default_rng(25)
        loc, us = make_indexes(rng, 91)
        sim = simulate_garch(sim_config(seed=25), loc, us)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(2, 1))
        assert len(runs) == 2 and runs[0].success
        assert runs[0].fun - runs[1].fun > 1.5
        assert fit.converged and fit.gammas[1] > 0.03

    def test_run_stopped_far_from_optimum_restarts(self, monkeypatch):
        # the first run's line search fails where the score's sup-norm is about
        # 20 and the log-likelihood 1.62 short; the restart converges
        runs = counted_runs(monkeypatch)
        rng = np.random.default_rng(19)
        loc, us = make_indexes(rng, 91)
        sim = simulate_garch(sim_config(seed=19), loc, us)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 2))
        assert len(runs) == 2 and not runs[0].success and np.abs(runs[0].jac).max() > 1.0
        assert runs[0].fun - runs[1].fun > 1.5
        assert fit.converged

    def test_reentry_from_untrapped_slack_on_face_is_finite(self, monkeypatch):
        # the first run ends with alphas[1] trapped on its face and the slack
        # 1 - sum on its face too (5.6e-17) but not trapped; 1 - sum of the
        # rescaled coefficients rounds to zero, and the restart must still
        # be a finite point from which the lag coefficients move
        starts, runs = [], []

        def recorded(fun, x0, **kwargs):
            starts.append(np.array(x0))
            runs.append(minimize(fun, x0, **kwargs))
            return runs[-1]

        monkeypatch.setattr("crosslist.garch.minimize", recorded)
        rng = np.random.default_rng(28)
        loc, us = make_indexes(rng, 91)
        sim = simulate_garch(sim_config(seed=28), loc, us)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_garch_market_model(sim, loc, us, GarchSpec(2, 2))
        assert len(runs) == 2 and np.isfinite(starts[1]).all()
        assert np.abs(runs[1].x[4:] - starts[1][4:]).max() > 0.5
        assert fit.converged

    def test_no_local_ascent_left_at_fitted_point(self):
        # gradient-free oracle: Nelder-Mead in the optimizer's coordinates,
        # started at each returned point, must not find a higher likelihood;
        # the panel holds a simplex-face trap (window 22, spec (2, 2)) that
        # a single BFGS run leaves 0.19 short
        rng = np.random.default_rng(67)
        worst = 0.0
        for w in range(24):
            loc, us = make_indexes(rng, 91)
            if w % 2 == 0:
                y = simulate_garch(sim_config(seed=1100 + w), loc, us)
            else:
                y = 0.0002 + 0.6 * loc + 0.3 * us + 0.02 * rng.standard_normal(91)
            X = np.column_stack([np.ones(91), loc, us])
            h0 = float(ols_fit(y, [loc, us]).residuals.var(ddof=1))
            for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
                fit = fit_garch_market_model(y, loc, us, GarchSpec(p, q))
                lik = _Likelihood(y, X, q, p, h0)
                with np.errstate(divide="ignore"):
                    theta = _encode(fit.mean_coefficients, fit.alpha0, fit.alphas, fit.gammas)
                theta[4:] = np.clip(theta[4:], -40.0, 40.0)

                def negll(t):
                    v = _loglik(lik, _natural(t))
                    return -v if np.isfinite(v) else np.inf

                nm = minimize(
                    negll, theta, method="Nelder-Mead",
                    options={"maxiter": 500, "fatol": 1e-8, "xatol": 1e-8},
                )
                worst = max(worst, -nm.fun - fit.log_likelihood)
        assert worst <= 1e-6

    def test_standardized_residuals_unit_variance(self):
        rng = np.random.default_rng(17)
        loc, us = make_indexes(rng, 5000)
        sim = simulate_garch(sim_config(seed=404, alpha0=4e-5), loc, us)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 1))
        X = np.column_stack([np.ones(5000), loc, us])
        eps = sim - X @ fit.mean_coefficients
        standardized = eps / np.sqrt(fit.conditional_variances)
        assert 0.9 <= standardized.var() <= 1.1

    def test_likelihood_not_degraded_from_start(self):
        # the optimizer keeps the best point seen, so the returned likelihood
        # can never fall below the homoskedastic-anchored starting point
        rng = np.random.default_rng(19)
        loc, us = make_indexes(rng, 1000)
        sim = simulate_garch(sim_config(seed=505, alpha0=4e-5), loc, us)
        base = ols_fit(sim, [loc, us])
        resid_var = float(base.residuals.var(ddof=1))
        X = np.column_stack([np.ones(1000), loc, us])
        start = np.concatenate([base.coefficients, [0.05 * resid_var, 0.05, 0.90]])
        start_ll = _loglik(_Likelihood(sim, X, 1, 1, resid_var), start)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 1))
        assert fit.log_likelihood >= start_ll - 1e-9

    def test_garch_beats_homoskedastic_on_garch_data(self):
        rng = np.random.default_rng(23)
        loc, us = make_indexes(rng, 3000)
        sim = simulate_garch(sim_config(seed=606, alpha0=4e-5), loc, us)
        full = fit_garch_market_model(sim, loc, us, GarchSpec(1, 1))
        flat = fit_garch_market_model(sim, loc, us, GarchSpec(0, 0))
        assert full.log_likelihood > flat.log_likelihood + 10.0

    def test_unequal_lengths_raise(self):
        loc, us = make_indexes(np.random.default_rng(29), 91)
        with pytest.raises(ValueError, match="must have equal length"):
            fit_garch_market_model(0.01 * loc[:90], loc, us)

    @pytest.mark.parametrize("search", [False, True])
    def test_series_too_short(self, search):
        # the search raises the window's error from its first candidate
        rng = np.random.default_rng(29)
        loc, us = make_indexes(rng, 59)
        y = np.zeros(59) + 0.01 * loc
        with pytest.raises(SeriesTooShort):
            if search:
                select_lags(y, loc, us, max_p=2, max_q=2)
            else:
                fit_garch_market_model(y, loc, us)

    @pytest.mark.parametrize("shape", ["zero", "linear"])
    @pytest.mark.parametrize("search", [False, True])
    def test_exact_fit_raises(self, shape, search):
        # an exact OLS fit leaves only rounding noise (residual variance ~1e-36
        # for the linear case), which the likelihood must not be maximised on
        loc, us = make_indexes(np.random.default_rng(5), 91)
        y = np.zeros(91) if shape == "zero" else 0.0002 + 0.5 * loc + 0.3 * us
        with pytest.raises(NonFiniteLikelihood, match="the OLS fit is exact"):
            if search:
                select_lags(y, loc, us, max_p=2, max_q=2)
            else:
                fit_garch_market_model(y, loc, us)

    def test_non_finite_start_raises(self, monkeypatch):
        # a nan likelihood scores zero gradient, so the first run stops at its
        # start, after the one evaluation, and the fit refuses it
        calls = []

        def nan_loglik(lik, theta):
            calls.append(theta.copy())
            return math.nan, np.full_like(theta, math.nan)

        monkeypatch.setattr("crosslist.garch._transformed_loglik", nan_loglik)
        loc, us = make_indexes(np.random.default_rng(5), 91)
        y = simulate_garch(sim_config(seed=5), loc, us)
        with pytest.raises(NonFiniteLikelihood, match="not finite at the starting point"):
            fit_garch_market_model(y, loc, us)
        assert len(calls) == 1

    def test_every_evaluation_is_an_optimizer_step(self, monkeypatch):
        # the start is evaluated once, by the first run, not again beforehand
        calls = []

        def counted_loglik(lik, theta):
            calls.append(theta.copy())
            return _transformed_loglik(lik, theta)

        monkeypatch.setattr("crosslist.garch._transformed_loglik", counted_loglik)
        runs = counted_runs(monkeypatch)
        loc, us = make_indexes(np.random.default_rng(5), 91)
        fit_garch_market_model(simulate_garch(sim_config(seed=5), loc, us), loc, us)
        assert len(calls) == sum(run.nfev for run in runs)

    def test_std_error_layout(self):
        rng = np.random.default_rng(31)
        loc, us = make_indexes(rng, 2000)
        sim = simulate_garch(sim_config(seed=707, alpha0=4e-5), loc, us)
        fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 1))
        assert fit.std_errors.shape == (3 + 1 + 1 + 1,)
        assert fit.variance_lag_t_stats.shape == (2,)


def mp_loglik(x, y, X, q, p, h0):
    """The GARCH log-likelihood, written out term by term in mpmath."""
    eps = [y[t] - x[0] * X[t][0] - x[1] * X[t][1] - x[2] * X[t][2] for t in range(len(y))]
    h = []
    ll = mp.mpf(0)
    for t in range(len(y)):
        ht = h0
        if t:
            ht = x[3]
            for j in range(1, q + 1):
                ht += x[3 + j] * (eps[t - j] ** 2 if t >= j else h0)
            for k in range(1, p + 1):
                ht += x[3 + q + k] * (h[t - k] if t >= k else h0)
        h.append(ht)
        ll -= (mp.log(2 * mp.pi) + mp.log(ht) + eps[t] ** 2 / ht) / 2
    return ll


def mp_std_errors(params, y, X, q, p, h0):
    """sqrt(diag((-H)^-1)), H by central second differences of `mp_loglik` at 40 digits."""
    with mp.workdps(40):
        x = [mp.mpf(float(v)) for v in params]
        yv = [mp.mpf(float(v)) for v in y]
        Xv = [[mp.mpf(float(v)) for v in row] for row in X]
        h0 = mp.mpf(float(h0))
        steps = [mp.mpf("1e-12") * max(abs(v), mp.mpf("1e-8")) for v in x]

        def f(*moves):
            v = list(x)
            for i, sign in moves:
                v[i] += sign * steps[i]
            return mp_loglik(v, yv, Xv, q, p, h0)

        k = len(x)
        f0 = f()
        H = mp.matrix(k, k)
        for i in range(k):
            H[i, i] = (f((i, 1)) - 2 * f0 + f((i, -1))) / steps[i] ** 2
            for j in range(i + 1, k):
                H[i, j] = H[j, i] = (
                    f((i, 1), (j, 1)) - f((i, 1), (j, -1)) - f((i, -1), (j, 1)) + f((i, -1), (j, -1))
                ) / (4 * steps[i] * steps[j])
        cov = mp.inverse(-H)
        return np.array([float(mp.sqrt(cov[i, i])) for i in range(k)])


def bundle_estimation_window(seed, n_code):
    """Firm `n_code`'s default estimation window in `simulate_bundle(10, 300, 0.0, seed)`, sliced as `run_event_study` does."""
    records, sse, nyse, prices = simulate_bundle(10, 300, 0.0, seed)
    rec = next(r for r in records if r.n_code == n_code)
    panel = align([prices(rec), sse, nyse])
    day0 = build_event_frame(panel, rec.us_listing_date) - 1
    return [_window(np.diff(np.log(v)), day0, EventWindows().estimation) for v in panel.closes]


class TestLogAlpha0Floor:
    # windows whose two-lag fit runs down the flat alpha0 -> 0 ridge; without
    # a floor on log alpha0 BFGS took it to about -745, where e^theta3 is
    # subnormal and alpha0 came back as 0 with a nan log-likelihood
    @pytest.mark.parametrize(
        "seed, n_code, p, q",
        [(3, "F02", 2, 1), (11, "F07", 2, 1), (13, "F06", 1, 2), (42, "F00", 2, 1), (55, "F08", 2, 1)],
    )
    def test_alpha0_positive_and_likelihood_finite(self, seed, n_code, p, q):
        fit = fit_garch_market_model(*bundle_estimation_window(seed, n_code), GarchSpec(p, q))
        assert fit.alpha0 > 0.0 and math.isfinite(fit.log_likelihood) and fit.converged


class TestBfgs:
    OPTIONS = {"gtol": 1e-7, "maxiter": 500}

    @staticmethod
    def quadratic():
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        A = Q @ np.diag([1.0, 3.0, 10.0, 30.0, 100.0]) @ Q.T
        b = rng.standard_normal(5)
        return (lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b)), np.linalg.solve(A, b)

    @pytest.mark.parametrize("problem", ["quadratic", "rosenbrock"])
    def test_reaches_gtol_and_counts(self, problem):
        if problem == "quadratic":
            fun, x_star = self.quadratic()
            x0 = np.zeros(5)
        else:
            fun, x_star, x0 = (lambda x: (rosen(x), rosen_der(x))), np.ones(4), np.array([-1.2, 1.0, -1.2, 1.0])
        calls = []

        def counted(x):
            calls.append(x.copy())
            return fun(x)

        res = minimize(counted, x0, method=_bfgs, options=self.OPTIONS)
        assert res.success and res.status == 0
        assert np.abs(fun(res.x)[1]).max() <= 1e-7
        np.testing.assert_allclose(res.x, x_star, atol=1e-6)
        assert res.nfev == len(calls) and 0 < res.nit < res.nfev
        assert res.fun == fun(res.x)[0]

    @pytest.mark.parametrize("problem", ["rosenbrock", "garch"])
    def test_accepted_steps_meet_strong_wolfe(self, monkeypatch, problem):
        accepted = []

        def checked(phi, f0, d0, a):
            step = _wolfe_step(phi, f0, d0, a)
            if step is not None:
                accepted.append((f0, d0, *step[:3]))
            return step

        monkeypatch.setattr("crosslist.garch._wolfe_step", checked)
        if problem == "rosenbrock":
            res = minimize(
                lambda x: (rosen(x), rosen_der(x)), np.array([-1.2, 1.0, -1.2, 1.0]),
                method=_bfgs, options=self.OPTIONS,
            )
            assert res.success and len(accepted) == res.nit > 10
        else:
            # the fit whose first run stops on a failed line search (see TestFitRecovery)
            rng = np.random.default_rng(19)
            loc, us = make_indexes(rng, 91)
            sim = simulate_garch(sim_config(seed=19), loc, us)
            fit_garch_market_model(sim, loc, us, GarchSpec(1, 2))
            assert len(accepted) > 50
        for f0, d0, a, f, d in accepted:
            assert d0 < 0 and a > 0
            assert f <= f0 + _C1 * a * d0
            assert abs(d) <= -_C2 * d0

    def test_failed_line_search_reports_failure_without_losing_ground(self):
        # the gradient points the wrong way, so no step along -H g decreases f
        def fun(x):
            return float(x @ x), -2.0 * x

        x0 = np.array([1.0, -2.0, 0.5])
        res = minimize(fun, x0, method=_bfgs, options=self.OPTIONS)
        assert not res.success and res.status == 2 and res.nit == 0
        assert res.fun <= fun(x0)[0]
        np.testing.assert_array_equal(res.x, x0)


class TestStdErrors:
    # seeded T = 91 windows from the GARCH(1, 1) simulator whose fit is
    # interior: every lag coefficient and the slack 1 - sum at least 0.01
    @pytest.mark.parametrize("p,q,seed", [(1, 1, 0), (1, 2, 0), (2, 1, 4), (2, 2, 155)])
    def test_match_high_precision_hessian(self, p, q, seed):
        rng = np.random.default_rng(seed)
        loc, us = make_indexes(rng, 91)
        y = simulate_garch(sim_config(seed=seed), loc, us)
        fit = fit_garch_market_model(y, loc, us, GarchSpec(p, q))
        coefs = np.concatenate([fit.alphas, fit.gammas])
        assert fit.converged and coefs.min() >= 0.01 and 1.0 - coefs.sum() >= 0.01
        X = np.column_stack([np.ones(91), loc, us])
        h0 = float(ols_fit(y, [loc, us]).residuals.var(ddof=1))
        params = np.concatenate([fit.mean_coefficients, [fit.alpha0], coefs])
        np.testing.assert_allclose(fit.std_errors, mp_std_errors(params, y, X, q, p, h0), rtol=1e-6)

    def test_alpha0_below_the_floor_step(self):
        # a seeded T = 91 window whose (1, 1) fit drives alpha0 to about 4e-21, below
        # its floor step 1e-13, with interior lags: central differences in alpha0
        # would step to alpha0 < 0, where the likelihood is nan
        rng = np.random.default_rng(37)
        loc, us = make_indexes(rng, 91)
        y = simulate_garch(sim_config(seed=37, alphas=(0.08,), gammas=(0.85,)), loc, us)
        fit = fit_garch_market_model(y, loc, us, GarchSpec(1, 1))
        coefs = np.concatenate([fit.alphas, fit.gammas])
        assert fit.alpha0 < 1e-13 and coefs.min() > 1e-3 and 1.0 - coefs.sum() > 1e-3
        X = np.column_stack([np.ones(91), loc, us])
        h0 = float(ols_fit(y, [loc, us]).residuals.var(ddof=1))
        params = np.concatenate([fit.mean_coefficients, [fit.alpha0], coefs])
        assert np.all(np.isfinite(fit.std_errors))
        np.testing.assert_allclose(fit.std_errors, mp_std_errors(params, y, X, 1, 1, h0), rtol=1e-6)

    def test_face_fit_fails_the_lag_gate(self):
        # homoskedastic window: the (1, 1) fit leaves alpha on the simplex face
        rng = np.random.default_rng(0)
        loc, us = make_indexes(rng, 91)
        y = 0.0002 + 0.6 * loc + 0.3 * us + 0.02 * rng.standard_normal(91)
        fit = fit_garch_market_model(y, loc, us, GarchSpec(1, 1))
        assert fit.alphas[0] < 1e-8
        t_alpha = fit.variance_lag_t_stats[0]
        assert np.isnan(t_alpha) or abs(t_alpha) < 1.96
        # (1, 1) out-fits (0, 0), so (0, 0) wins only if (1, 1) fails the gate
        flat = fit_garch_market_model(y, loc, us, GarchSpec(0, 0))
        assert fit.log_likelihood > flat.log_likelihood
        spec, _ = select_lags(y, loc, us, max_p=1, max_q=1, include_homoskedastic=True)
        assert (spec.p, spec.q) == (0, 0)


class TestSelectLags:
    def test_search_set_is_one_one_at_unit_ceiling(self):
        rng = np.random.default_rng(37)
        loc, us = make_indexes(rng, 800)
        sim = simulate_garch(sim_config(seed=808, alpha0=4e-5), loc, us)
        spec, fit = select_lags(sim, loc, us, max_p=1, max_q=1)
        assert (spec.p, spec.q) == (1, 1)
        assert isinstance(fit, GarchFit)

    def test_prefers_true_order_on_simulated_data(self):
        rng = np.random.default_rng(41)
        hits = 0
        n_seeds = 25
        for seed in range(n_seeds):
            loc, us = make_indexes(rng, 1500)
            sim = simulate_garch(sim_config(seed=900 + seed, alpha0=4e-5), loc, us)
            spec, _ = select_lags(sim, loc, us, max_p=2, max_q=2)
            hits += (spec.p, spec.q) == (1, 1)
        assert hits / n_seeds >= 0.8

    def test_homoskedastic_data_selects_flat_spec_when_included(self):
        rng = np.random.default_rng(43)
        hits = 0
        n_seeds = 20
        for _ in range(n_seeds):
            loc, us = make_indexes(rng, 1200)
            y = 0.0002 + 0.6 * loc + 0.3 * us + 0.02 * rng.standard_normal(1200)
            spec, fit = select_lags(y, loc, us, max_p=1, max_q=1, include_homoskedastic=True)
            hits += (spec.p, spec.q) == (0, 0)
        assert hits / n_seeds >= 0.7

    def test_homoskedastic_data_falls_back_to_one_one(self):
        rng = np.random.default_rng(47)
        loc, us = make_indexes(rng, 1000)
        y = 0.0002 + 0.6 * loc + 0.3 * us + 0.02 * rng.standard_normal(1000)
        spec, fit = select_lags(y, loc, us, max_p=1, max_q=1)
        assert (spec.p, spec.q) == (1, 1)

    def test_ceiling_validated(self):
        rng = np.random.default_rng(53)
        loc, us = make_indexes(rng, 100)
        with pytest.raises(ValueError):
            select_lags(0.01 * loc, loc, us, max_p=3, max_q=1)


class TestUnconditionalVariance:
    def _fit_like(self, alpha0, alphas, gammas):
        return GarchFit(
            mean_coefficients=np.zeros(3),
            alpha0=alpha0,
            alphas=np.asarray(alphas, dtype=float),
            gammas=np.asarray(gammas, dtype=float),
            conditional_variances=np.ones(1),
            log_likelihood=0.0,
            std_errors=np.zeros(4 + len(alphas) + len(gammas)),
            converged=True,
            ols=None,  # unconditional_variance does not read the mean equation
        )

    def test_no_persistence(self):
        assert unconditional_variance(self._fit_like(0.2, [], [])) == pytest.approx(0.2)

    def test_closed_form(self):
        assert unconditional_variance(self._fit_like(0.1, [0.1], [0.8])) == pytest.approx(1.0)

    def test_matches_long_simulation(self):
        rng = np.random.default_rng(59)
        loc, us = make_indexes(rng, 50000)
        config = sim_config(seed=1001, alpha0=4e-5)
        sim = simulate_garch(config, loc, us)
        eps = sim - (0.0002 + 0.6 * loc + 0.3 * us)
        target = 4e-5 / (1.0 - 0.1 - 0.8)
        assert eps.var() == pytest.approx(target, rel=0.1)


class TestSpecValidation:
    def test_lag_ceiling(self):
        with pytest.raises(ValueError):
            GarchSpec(p=3, q=0)
        with pytest.raises(ValueError):
            GarchSpec(p=0, q=-1)

    def test_sim_config_negative_alpha(self):
        with pytest.raises(NonStationaryParameters, match="alphas and gammas must be nonnegative"):
            GarchSimConfig(
                true_mean_coefficients=(0.0, 0.5, 0.5), true_alpha0=1e-5, true_alphas=(-0.1,), true_gammas=(0.8,), seed=1
            )

    def test_sim_config_consistency(self):
        # more lags than MAX_VARIANCE_LAGS on either side are refused, naming the field
        for name, lags in (("true_alphas", {"true_alphas": (0.1, 0.1, 0.1), "true_gammas": (0.5,)}),
                           ("true_gammas", {"true_alphas": (0.1,), "true_gammas": (0.2, 0.2, 0.2)})):
            with pytest.raises(ValueError, match=f"{name} must hold at most 2 entries, got 3"):
                GarchSimConfig(true_mean_coefficients=(0.0, 0.5, 0.5), true_alpha0=1e-5, seed=1, **lags)
        # a mean equation with the wrong number of coefficients is refused on
        # construction, naming the field, rather than failing inside simulate_garch
        with pytest.raises(ValueError, match="true_mean_coefficients must hold 3 entries"):
            GarchSimConfig(
                true_mean_coefficients=(0.0, 0.5),
                true_alpha0=1e-5,
                true_alphas=(0.1,),
                true_gammas=(0.8,),
                seed=1,
            )
