"""Shared test fixtures: independent oracles, panel simulators and a Monte Carlo harness.

The oracles here must stay independent of the code paths they check:
the OLS oracle solves the normal equations in 40-digit arithmetic, and
the panel simulator builds event panels from first principles (known
coefficients, homoskedastic Gaussian noise) so calibration statistics
have known distributions.  `null_rejections` runs the whole pipeline on
seeded null bundles in memory and counts its 5% rejections, with exact
binomial bounds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import mpmath as mp
from scipy.special import betaincinv

from crosslist.cli import simulate_bundle
from crosslist.event_study import (
    EventWindows,
    FirmEventResult,
    Z_CRITICAL_5PCT,
    abnormal_returns,
    run_event_study,
    standardize,
)
from crosslist.garch import _LOG_2PI, _variance_filter
from crosslist.linear_models import ols_fit
from crosslist.market_data import PRICE_COLUMNS


def ols_oracle(y, regressors, dps: int = 40) -> np.ndarray:
    """Solve the intercept-augmented normal equations in high precision."""
    n = len(y)
    cols = [np.ones(n)] + [np.asarray(r, dtype=float) for r in regressors]
    k = len(cols)
    with mp.workdps(dps):
        X = mp.matrix(n, k)
        for j, col in enumerate(cols):
            for i in range(n):
                X[i, j] = mp.mpf(float(col[i]))
        yv = mp.matrix([mp.mpf(float(v)) for v in y])
        xtx = X.T * X
        xty = X.T * yv
        coef = mp.lu_solve(xtx, xty)
        return np.array([float(c) for c in coef])


def simulate_firm_returns(rng, loc, us, sigma, effect=0.0, day0=None):
    """One firm's returns from known market-model coefficients plus iid noise, `effect` added at `day0`."""
    T = loc.shape[0]
    beta = np.array([rng.normal(0.0, 1e-4), rng.uniform(0.3, 1.2), rng.uniform(0.1, 0.8)])
    X = np.column_stack([np.ones(T), loc, us])
    r = X @ beta + sigma * rng.standard_normal(T)
    if effect and day0 is not None:
        r[day0] += effect
    return r


def simulate_panel(rng, n_firms: int = 10, effect: float = 0.0,
                   windows: EventWindows = EventWindows()):
    """Event panel with homoskedastic firms and OLS estimation-window fits.

    Returns the per-firm results ready for aggregate().  Under effect=0
    the standardized abnormal returns follow a t distribution with
    (estimation length - 3) degrees of freedom by construction.
    """
    # the vectors run from the estimation window's first day to the event window's last
    day0 = -windows.estimation.lo
    T = day0 + windows.event.hi + 1
    loc = 0.01 * rng.standard_normal(T)
    us = 0.01 * rng.standard_normal(T)
    caps = rng.uniform(1e9, 1e10, n_firms)
    weights = caps / caps.sum()

    est = slice(0, windows.estimation.length)
    ev = slice(day0 + windows.event.lo, T)
    loc_ev, us_ev = loc[ev], us[ev]

    results = []
    for i in range(n_firms):
        sigma = rng.uniform(0.008, 0.018)
        r = simulate_firm_returns(rng, loc, us, sigma, effect=effect, day0=day0)
        fit = ols_fit(r[est], [loc[est], us[est]])
        ar = abnormal_returns(r[ev], loc_ev, us_ev, fit.coefficients)
        star = standardize(ar, fit, loc_ev, us_ev)
        results.append(
            FirmEventResult(firm_id=f"F{i:02d}", ar=ar, star=star, weight=float(weights[i]))
        )
    return results


@dataclass(frozen=True)
class Rejections:
    """`count` rejections in `attempts` independent trials."""

    count: int
    attempts: int

    def bounds(self, confidence: float = 0.95) -> tuple[float, float]:
        """The exact two-sided Clopper-Pearson interval for the rejection rate."""
        tail = (1.0 - confidence) / 2.0
        k, n = self.count, self.attempts
        lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, tail))
        hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - tail))
        return lo, hi


def null_rejections(n_bundles: int, seed: int, n_firms: int = 10, n_days: int = 300,
                    windows: EventWindows = EventWindows(), max_p: int = 1, max_q: int = 1):
    """5% rejections of the whole pipeline over seeded null (effect 0) bundles, studied in memory.

    Bundle r is `simulate_bundle(n_firms, n_days, 0.0, seed + r)`.  Returns
    `{"day0_z": ..., "variance": ...}` as `Rejections`: bundles whose day-0
    |Z| > 1.96 among those with a panel (the bundle is the trial, as its
    firms share one Z), and firms that `variance.csv` marks significant
    among the firms it tests.
    """
    day0 = -windows.event.lo
    z_count = z_attempts = var_count = var_attempts = 0
    for r in range(n_bundles):
        records, local_index, us_index, prices = simulate_bundle(n_firms, n_days, 0.0, seed + r)
        study = run_event_study(records, prices, local_index, us_index, None, windows, max_p, max_q)
        if study.panel is None:
            continue
        z_attempts += 1
        z_count += abs(float(study.panel.z[day0])) > Z_CRITICAL_5PCT
        tested = [row for row in study.variance if row.error is None]
        var_attempts += len(tested)
        var_count += sum(bool(row.f_result.significant_5pct) for row in tested)
    return {"day0_z": Rejections(z_count, z_attempts), "variance": Rejections(var_count, var_attempts)}


def align_reference(series):
    """Alignment by set intersection and a date-to-position dict per series.

    Returns the common dates and each series' closes on them, in input
    order; the dates are empty when the series share none.
    """
    common = set(series[0].dates.tolist())
    for s in series[1:]:
        common &= set(s.dates.tolist())
    common_dates = tuple(sorted(common))
    closes = []
    for s in series:
        pos = {d: i for i, d in enumerate(s.dates.tolist())}
        closes.append(s.closes[[pos[d] for d in common_dates]])
    return common_dates, closes


def convert_to_usd_reference(series, fx):
    """FX conversion by a date-to-rate dict: the kept dates and the USD closes."""
    rates = dict(zip(fx.dates.tolist(), fx.values.tolist()))
    dated = series.dates.tolist()
    keep = [i for i, d in enumerate(dated) if d in rates]
    dates = tuple(dated[i] for i in keep)
    return dates, series.closes[keep] * np.array([rates[d] for d in dates])


def write_prices_reference(series) -> bytes:
    """The bytes of a price file: `csv.writer` rows of `date.isoformat` and `repr` closes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRICE_COLUMNS)
    writer.writerows([d.isoformat(), repr(c)] for d, c in zip(series.dates.tolist(), series.closes.tolist()))
    return out.getvalue().encode("utf-8")


def simulate_garch_values_reference(config, loc, us) -> np.ndarray:
    """`simulate_garch`'s return values by the per-day loop with explicit lag branches.

    The recursion is the simulator's earlier loop, kept verbatim: the same
    IEEE operations in the same order, so outputs must match bit for bit.
    """
    T = config.length
    beta = np.asarray(config.true_mean_coefficients, dtype=float)
    alphas = np.asarray(config.true_alphas, dtype=float)
    gammas = np.asarray(config.true_gammas, dtype=float)
    alpha0 = float(config.true_alpha0)
    q, p = alphas.shape[0], gammas.shape[0]
    uncond = alpha0 / (1.0 - alphas.sum() - gammas.sum()) if q + p else alpha0

    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal(T).tolist()
    alphas, gammas, uncond = alphas.tolist(), gammas.tolist(), float(uncond)
    h = [0.0] * T
    eps = [0.0] * T
    for t in range(T):
        if t == 0 and q + p:
            ht = uncond
        else:
            ht = alpha0
            for j in range(1, q + 1):
                ht += alphas[j - 1] * (eps[t - j] ** 2 if t - j >= 0 else uncond)
            for k in range(1, p + 1):
                ht += gammas[k - 1] * (h[t - k] if t - k >= 0 else uncond)
        h[t] = ht
        eps[t] = math.sqrt(ht) * z[t]

    X = np.column_stack([np.ones(T), loc, us])
    return X @ beta + np.array(eps)


def garch_loglik_reference(params, y, X, q, p, h0, score=False):
    """The GARCH log-likelihood and its score in forward mode: the earlier `_loglik`, kept verbatim.

    The derivatives of the driving term, a T x k matrix D, run through the
    variance filter column by column (Fiorentini, Calzolari & Panattoni
    1996); the score is w'(L^-1 D) with w = (z^2 - 1) / 2h.  The driving
    term is formed in the same order as `_loglik` forms it, and filtered by
    the same `_variance_filter` (which has its own recursion oracle), so
    the values match bit for bit and only the score's rounding differs.
    """
    alpha0 = params[3]
    alphas = params[4 : 4 + q]
    gammas = params[4 + q :]
    valid = alpha0 > 0
    if valid:
        eps = y - X @ params[:3]
        eps2 = eps * eps
        T = eps.shape[0]
        drive = np.full(T, alpha0, dtype=float)
        for j in range(1, q + 1):
            drive[:j] += alphas[j - 1] * h0
            drive[j:] += alphas[j - 1] * eps2[: T - j]
        for k in range(2, p + 1):
            drive[1:k] += gammas[k - 1] * h0
        if p or q:
            drive[0] = h0
        h = _variance_filter(gammas, drive)
        valid = h.min() > 0.0 and h.max() < math.inf
    if not valid:
        return (math.nan, np.full(params.shape[0], math.nan)) if score else math.nan
    z2 = eps2 / h
    ll = float(-0.5 * (_LOG_2PI + np.log(h) + z2).sum())
    if not score:
        return ll

    # D[t, i] = d(driving term at t) / d params[i]; any lag pins h_1 at h0
    ex = eps[:, None] * X
    D = np.zeros((T, params.shape[0]), order="F")
    D[1 if p or q else 0 :, 3] = 1.0
    for j in range(1, q + 1):
        D[j:, :3] -= 2.0 * alphas[j - 1] * ex[: T - j]
        D[1:j, 3 + j] = h0
        D[j:, 3 + j] = eps2[: T - j]
    for k in range(1, p + 1):
        D[1:k, 3 + q + k] = h0
        D[k:, 3 + q + k] = h[: T - k]
    D = _variance_filter(gammas, D)
    grad = (0.5 * (z2 - 1.0) / h) @ D
    grad[:3] += (eps / h) @ X
    return ll, grad
