"""Shared test fixtures: independent oracles and panel simulators.

The oracles here must stay independent of the code paths they check:
the OLS oracle solves the normal equations in 40-digit arithmetic, and
the panel simulator builds event panels from first principles (known
coefficients, homoskedastic Gaussian noise) so calibration statistics
have known distributions.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import mpmath as mp

from crosslist.event_study import (
    EventWindows,
    FirmEventResult,
    abnormal_returns,
    standardize,
    window_values,
)
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


def simulate_firm_returns(rng, loc, us, sigma, effect=0.0, offsets=None):
    """One firm's returns from known market-model coefficients plus iid noise."""
    T = loc.shape[0]
    beta = np.array([rng.normal(0.0, 1e-4), rng.uniform(0.3, 1.2), rng.uniform(0.1, 0.8)])
    X = np.column_stack([np.ones(T), loc, us])
    r = X @ beta + sigma * rng.standard_normal(T)
    if effect and offsets is not None:
        r[offsets == 0] += effect
    return r


def simulate_panel(rng, n_firms: int = 10, effect: float = 0.0,
                   windows: EventWindows = EventWindows()):
    """Event panel with homoskedastic firms and OLS estimation-window fits.

    Returns the per-firm results ready for aggregate().  Under effect=0
    the standardized abnormal returns follow a t distribution with
    (estimation length - 3) degrees of freedom by construction.
    """
    offsets = np.arange(windows.estimation.lo, windows.event.hi + 1)
    T = offsets.shape[0]
    loc = 0.01 * rng.standard_normal(T)
    us = 0.01 * rng.standard_normal(T)
    caps = rng.uniform(1e9, 1e10, n_firms)
    weights = caps / caps.sum()

    est = (offsets >= windows.estimation.lo) & (offsets <= windows.estimation.hi)
    loc_ev = window_values(loc, offsets, windows.event, fill_missing=True)
    us_ev = window_values(us, offsets, windows.event, fill_missing=True)

    results = []
    for i in range(n_firms):
        sigma = rng.uniform(0.008, 0.018)
        r = simulate_firm_returns(rng, loc, us, sigma, effect=effect, offsets=offsets)
        fit = ols_fit(r[est], [loc[est], us[est]])
        r_ev = window_values(r, offsets, windows.event, fill_missing=True)
        ar = abnormal_returns(r_ev, loc_ev, us_ev, fit.coefficients)
        star = standardize(ar, fit, loc_ev, us_ev)
        results.append(
            FirmEventResult(firm_id=f"F{i:02d}", ar=ar, star=star, weight=float(weights[i]))
        )
    return results


def align_reference(series):
    """Alignment by set intersection and a date-to-position dict per series.

    Returns the common dates and each series' closes on them; the dates are
    empty when the series share none.
    """
    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    common_dates = tuple(sorted(common))
    by_id = {}
    for s in series:
        pos = {d: i for i, d in enumerate(s.dates)}
        by_id[s.instrument_id] = s.closes[[pos[d] for d in common_dates]]
    return common_dates, by_id


def convert_to_usd_reference(series, fx):
    """FX conversion by a date-to-rate dict: the kept dates and the USD closes."""
    rates = dict(zip(fx.dates, fx.values.tolist()))
    keep = [i for i, d in enumerate(series.dates) if d in rates]
    dates = tuple(series.dates[i] for i in keep)
    return dates, series.closes[keep] * np.array([rates[d] for d in dates])


def write_prices_reference(series) -> bytes:
    """The bytes of a price file: `csv.writer` rows of `date.isoformat` and `repr` closes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRICE_COLUMNS)
    writer.writerows([d.isoformat(), repr(c)] for d, c in zip(series.dates, series.closes.tolist()))
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
