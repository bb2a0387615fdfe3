"""Seeded input bundles for the benchmark, written with the stdlib and numpy only.

The generator does not call `crosslist simulate`, so a change to the
program's simulator cannot change the inputs of the other workloads.  It
writes the documented file formats (manifest, `date,close` prices,
`date,rate` FX, `date,annual_yield_pct` risk-free) and returns the answers
the output checks compare against: per-firm row and common-date counts,
the set of firms that must be skipped, the planted day-0 effect and the
true market-model betas.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

GRID_START = np.datetime64("2000-01-03")
WEEKDAYS_PER_YEAR = 261

# event windows the CLI uses by default: returns must cover offsets -105..105
COVERAGE_BEFORE = 106
COVERAGE_AFTER = 105
QUIET_ZONE = 130  # grid days around a listing kept free of firm suspensions

MANIFEST_COLUMNS = (
    "name", "a_code", "n_code", "industry", "market_cap_usd",
    "us_listing_date", "local_listing_date", "price_file",
)
INDUSTRIES = ("Energy", "Transport", "Utilities", "Insurance", "Materials", "Telecom")


def _weekday_grid(n_days: int) -> np.ndarray:
    return np.busday_offset(GRID_START, np.arange(n_days), roll="forward")


def _holidays(rng, n_days: int, blocks: tuple[tuple[int, int, int], ...], singles: int) -> np.ndarray:
    """Grid indices closed per year: fixed-length blocks at random starts plus single days.

    Each block is (earliest start, latest start, length) within a year of weekdays.
    """
    closed = []
    for year_start in range(0, n_days, WEEKDAYS_PER_YEAR):
        for lo, hi, length in blocks:
            start = year_start + int(rng.integers(lo, hi + 1))
            closed.extend(range(start, start + length))
        closed.extend((year_start + rng.choice(WEEKDAYS_PER_YEAR, size=singles, replace=False)).tolist())
    closed = np.unique(np.asarray(closed, dtype=int))
    return closed[(closed > 0) & (closed < n_days)]  # day 0 always trades


def _open_days(n_days: int, closed: np.ndarray) -> np.ndarray:
    mask = np.ones(n_days, dtype=bool)
    mask[closed] = False
    return np.flatnonzero(mask)


def _write_series(path: Path, header: tuple[str, str], grid, idx: np.ndarray, values: np.ndarray) -> None:
    iso = np.datetime_as_string(grid[idx], unit="D")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"{header[0]},{header[1]}\n")
        f.writelines(f"{d},{v!r}\n" for d, v in zip(iso.tolist(), values[idx].tolist()))


def _garch_errors(rng, n_firms: int, n_days: int, sigma: np.ndarray) -> np.ndarray:
    """GARCH(1,1) errors per firm, started at the unconditional variance."""
    alpha1, gamma1 = 0.08, 0.85
    alpha0 = sigma**2 * (1.0 - alpha1 - gamma1)
    z = rng.standard_normal((n_days, n_firms))
    eps = np.empty((n_days, n_firms))
    h = sigma**2
    for t in range(n_days):
        eps[t] = np.sqrt(h) * z[t]
        h = alpha0 + alpha1 * eps[t] ** 2 + gamma1 * h
    return eps


def generate_bundle(
    out_dir: Path,
    seed: int,
    n_firms: int,
    n_days: int,
    effect: float,
    plant_skips: bool,
) -> dict:
    """Write a dual-listing bundle and return the expected answers.

    Every exchange has its own holiday calendar, the FX series has its own
    gaps, and firms are suspended for blocks of days (away from their
    listing date).  With `plant_skips`, the last two firms list too close
    to the sample start and after the sample end, so the event study must
    skip exactly those two.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    grid = _weekday_grid(n_days)

    sse_days = _open_days(n_days, _holidays(rng, n_days, ((15, 30, 5), (190, 195, 5)), 3))
    nyse_days = _open_days(n_days, _holidays(rng, n_days, (), 9))
    fx_days = _open_days(n_days, _holidays(rng, n_days, (), 2))
    common_idx = np.intersect1d(sse_days, nyse_days)
    usable = np.intersect1d(common_idx, fx_days)  # dates that survive FX conversion and alignment

    loc_ret = 0.0002 + 0.012 * rng.standard_normal(n_days)
    us_ret = 0.0002 + 0.010 * rng.standard_normal(n_days)
    fx_ret = 0.0005 * rng.standard_normal(n_days)
    loc_ret[0] = us_ret[0] = fx_ret[0] = 0.0
    sse_level = 3000.0 * np.exp(np.cumsum(loc_ret))
    nyse_level = 10000.0 * np.exp(np.cumsum(us_ret))
    fx_level = 0.14 * np.exp(np.cumsum(fx_ret))
    _write_series(out_dir / "sse.csv", ("date", "close"), grid, sse_days, sse_level)
    _write_series(out_dir / "nyse.csv", ("date", "close"), grid, nyse_days, nyse_level)
    _write_series(out_dir / "fx.csv", ("date", "rate"), grid, fx_days, fx_level)
    for name, days in (("cn_rf.csv", sse_days), ("us_rf.csv", nyse_days)):
        yields = 3.0 + np.cumsum(0.01 * rng.standard_normal(n_days))
        _write_series(out_dir / name, ("date", "annual_yield_pct"), grid, days, yields)

    beta_loc = rng.uniform(0.6, 1.1, n_firms)
    beta_us = rng.uniform(0.2, 0.5, n_firms)
    sigma = rng.uniform(0.008, 0.012, n_firms)
    caps = rng.uniform(2e9, 2.4e11, n_firms)
    errors = _garch_errors(rng, n_firms, n_days, sigma)

    n_usable = usable.shape[0]
    n_planted = 2 if plant_skips else 0
    listing_idx = np.empty(n_firms, dtype=int)
    lo, hi = COVERAGE_BEFORE + 40, n_usable - COVERAGE_AFTER - 40
    if hi <= lo:
        raise ValueError(f"{n_days} days are too few for the event windows")
    for i in range(n_firms - n_planted):
        listing_idx[i] = usable[int(rng.integers(lo, hi))]
    skip = set()
    if plant_skips:
        listing_idx[n_firms - 2] = usable[COVERAGE_BEFORE // 2]  # too little pre-event history
        listing_idx[n_firms - 1] = n_days  # lists after the last trading day
        skip = {f"N{n_firms - 2:03d}", f"N{n_firms - 1:03d}"}

    firms = []
    manifest_rows = []
    for i in range(n_firms):
        code = f"N{i:03d}"
        firm_ret = 0.0003 + beta_loc[i] * loc_ret + beta_us[i] * us_ret + errors[:, i]
        listing = int(listing_idx[i])
        if listing < n_days:
            firm_ret[listing] += effect
        firm_ret[0] = 0.0
        closes = 20.0 * np.exp(np.cumsum(firm_ret))

        closed = []
        for _ in range(int(rng.integers(1, 4))):
            start = int(rng.integers(1, n_days - 10))
            if abs(start - listing) > QUIET_ZONE:
                closed.extend(range(start, start + int(rng.integers(1, 11))))
        firm_days = np.setdiff1d(sse_days, np.asarray(closed, dtype=int))
        price_file = f"prices_{code}.csv"
        _write_series(out_dir / price_file, ("date", "close"), grid, firm_days, closes)

        n_common = int(np.intersect1d(firm_days, common_idx).shape[0])
        listing_date = grid[listing] if listing < n_days else grid[-1] + np.timedelta64(30, "D")
        firms.append({
            "code": code,
            "rows": int(firm_days.shape[0]),
            "common": n_common,
            "lost": int(firm_days.shape[0]) - n_common,
            "beta_loc": float(beta_loc[i]),
            "beta_us": float(beta_us[i]),
        })
        manifest_rows.append([
            f"Firm {code}", str(600000 + i), code, INDUSTRIES[i % len(INDUSTRIES)],
            repr(float(caps[i])), str(listing_date), str(grid[0]), price_file,
        ])

    with open(out_dir / "manifest.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(manifest_rows)
    (out_dir / "run.ini").write_text(
        "[data]\n"
        "manifest = manifest.csv\n"
        "local_index = sse.csv\n"
        "us_index = nyse.csv\n"
        "fx = fx.csv\n"
        "local_risk_free = cn_rf.csv\n"
        "us_risk_free = us_rf.csv\n",
        encoding="utf-8",
    )
    return {"firms": firms, "skipped": sorted(skip), "effect": effect}


def write_simulate_config(out_dir: Path, seed: int, n_firms: int, n_days: int) -> dict:
    """Config for `crosslist simulate`; returns the expected shape of its output."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run.ini").write_text(
        f"[run]\nseed = {seed}\n\n[simulate]\nfirms = {n_firms}\ndays = {n_days}\neffect = 0.02\n",
        encoding="utf-8",
    )
    return {"n_firms": n_firms, "n_days": n_days}
