"""Event-study pipeline: event windows, abnormal returns from the fitted
market model, cap-weighted averaging, cumulative abnormal returns,
standardized abnormal returns, Z / cumulative-Z statistics, and pre/post
variance-ratio reports.

`run_event_study` runs the whole study over a manifest, one firm at a
time, skipping a firm that fails; `aggregate` is a deterministic reduction
over the per-firm results.  Event time counts a firm's own aligned trading
days, so its return vectors are consecutive in event time and every
window is a slice of them around the position of day 0.
`write_event_reports` writes a study's four report files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import market_data
from .errors import (
    CrosslistError,
    DegenerateSample,
    MisalignedOffsets,
    UnknownFirm,
    WindowOutOfData,
)
from .garch import MIN_OBSERVATIONS, GarchFit, select_lags
from .linear_models import DiagnosticsReport, OlsFit, diagnostics_report, prediction_se
from .market_data import InstrumentRecord, PriceSeries, RateSeries
from .stats_core import FTestResult, variance_f_test

Z_CRITICAL_5PCT = 1.96

EVENT_CSV_HEADER = "offset,aar,car,z,significant"
VARIANCE_CSV_HEADER = "firm,ratio,f_stat,p_value,significant"
COEFFICIENTS_CSV_HEADER = "code,r_const,r_sse,r_nyse,arch_lags,garch_lags,weight"


@dataclass(frozen=True)
class OffsetRange:
    """Inclusive range of event-time offsets."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"range [{self.lo}, {self.hi}] is not ordered")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def offsets(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


DEFAULT_ESTIMATION = OffsetRange(-105, -15)
DEFAULT_EVENT = OffsetRange(-15, 15)
DEFAULT_PRE_VAR = OffsetRange(-105, -15)
DEFAULT_POST_VAR = OffsetRange(15, 105)


@dataclass(frozen=True)
class EventWindows:
    """Estimation, event, and variance-comparison windows in event time."""

    estimation: OffsetRange = DEFAULT_ESTIMATION
    event: OffsetRange = DEFAULT_EVENT
    pre_var: OffsetRange = DEFAULT_PRE_VAR
    post_var: OffsetRange = DEFAULT_POST_VAR

    def __post_init__(self) -> None:
        if self.estimation.hi >= 0:
            raise ValueError("the estimation window must end before day 0")
        if self.estimation.length < MIN_OBSERVATIONS:  # the market-model fit's minimum
            raise ValueError(f"estimation window must span >= {MIN_OBSERVATIONS} days, got {self.estimation.length}")
        if not self.event.lo <= 0 <= self.event.hi:
            raise ValueError("the event window must contain day 0")


@dataclass(frozen=True)
class FirmEventResult:
    """Per-firm abnormal and standardized abnormal returns over the event window.

    `diagnostics` are the Durbin-Watson and Breusch-Godfrey statistics of
    the estimation-window OLS residuals (`fit.ols`).
    """

    firm_id: str
    ar: np.ndarray
    star: np.ndarray
    weight: float
    fit: GarchFit | None = None
    diagnostics: DiagnosticsReport | None = None


@dataclass(frozen=True)
class EventPanelResult:
    """Cross-sectional event statistics per event day.

    aar is the cap-weighted average abnormal return, car its running sum
    from the window start, z the cross-sectional sum of standardized
    abnormal returns scaled by sqrt(1/n) over the n firms (every analysed
    firm has every event day), and cz_full_window the time-cumulated z over
    the whole event window.
    """

    offsets: np.ndarray
    aar: np.ndarray
    car: np.ndarray
    z: np.ndarray
    cz_full_window: float

    def cumulative_z(self, lo: int, hi: int) -> float:
        """Sum of z over offsets [lo, hi] scaled by sqrt(1/(hi - lo + 1))."""
        if lo > hi:
            raise ValueError(f"range [{lo}, {hi}] is not ordered")
        mask = (self.offsets >= lo) & (self.offsets <= hi)
        if mask.sum() != hi - lo + 1:
            raise WindowOutOfData(f"offsets [{lo}, {hi}] are not fully covered")
        return float(np.sum(self.z[mask]) * np.sqrt(1.0 / (hi - lo + 1)))


@dataclass(frozen=True)
class VarianceRatioRow:
    firm_id: str
    f_result: FTestResult | None
    error: str | None = None


@dataclass(frozen=True)
class EventStudyResult:
    """What `run_event_study` found over `windows`, in USD if `usd`; no `panel` or `variance` if all were skipped."""

    firms: tuple[FirmEventResult, ...]
    skipped: Mapping[str, Exception]
    panel: EventPanelResult | None
    variance: tuple[VarianceRatioRow, ...] | None
    windows: EventWindows
    usd: bool


def _window(values: np.ndarray, day0: int, window: OffsetRange) -> np.ndarray:
    """The entries of `values` inside `window`, given that day 0 sits at position `day0`.

    Raises WindowOutOfData unless `values` cover the whole window.
    """
    start, stop = day0 + window.lo, day0 + window.hi + 1
    if start < 0 or stop > len(values):
        raise WindowOutOfData(
            f"coverage [{-day0}, {len(values) - 1 - day0}] does not span [{window.lo}, {window.hi}]"
        )
    return values[start:stop]


def abnormal_returns(firm_returns, local_index, us_index, mean_coefficients) -> np.ndarray:
    """Realized minus model-implied returns, elementwise over aligned vectors.

    `mean_coefficients` is the (intercept, local, US) vector of a fitted
    market model; the fit must come from data strictly before the event
    window.  NaN inputs yield NaN outputs.
    """
    r = np.asarray(firm_returns, dtype=float).ravel()
    loc = np.asarray(local_index, dtype=float).ravel()
    us = np.asarray(us_index, dtype=float).ravel()
    if not (r.shape == loc.shape == us.shape):
        raise MisalignedOffsets("firm and index event-window vectors must have equal length")
    coef = np.asarray(mean_coefficients, dtype=float).ravel()
    if coef.shape[0] != 3:
        raise ValueError(f"mean_coefficients must have 3 entries, got {coef.shape[0]}")
    x = np.column_stack([np.ones(r.shape[0]), loc, us])
    return r - x @ coef


def cap_weights(manifest: Sequence[InstrumentRecord], active_ids: Sequence[str]) -> dict[str, float]:
    """Market-cap weights over the active firms, summing to one.

    Active ids are matched against the manifest's n_code.
    """
    by_code = {rec.n_code: rec for rec in manifest}
    caps: dict[str, float] = {}
    for firm_id in active_ids:
        if firm_id not in by_code:
            raise UnknownFirm(f"{firm_id!r} is not in the manifest")
        caps[firm_id] = by_code[firm_id].market_cap_usd
    total = sum(caps.values())
    return {firm_id: cap / total for firm_id, cap in caps.items()}


def standardize(ar, fit: OlsFit, local_index, us_index) -> np.ndarray:
    """Divide each abnormal return by its day-specific forecast standard error.

    The scale is `prediction_se` of the estimation-window regression `fit`,
    evaluated at each event day's index-return row, so standardized values
    are comparable across firms.  An exact fit raises ExactFitNoVariance.
    """
    ar = np.asarray(ar, dtype=float).ravel()
    loc = np.asarray(local_index, dtype=float).ravel()
    us = np.asarray(us_index, dtype=float).ravel()
    if not (ar.shape == loc.shape == us.shape):
        raise MisalignedOffsets("ar and index event-window vectors must have equal length")
    return ar / prediction_se(fit, np.column_stack([loc, us]))


def aggregate(results: Sequence[FirmEventResult], windows: EventWindows) -> EventPanelResult:
    """Reduce per-firm results to the event-panel statistics.

    aar_t weights every firm's abnormal return on day t by its weight over
    the weights' sum; car is the running sum of aar from the window start;
    z_t sums standardized abnormal returns unweighted, scaled by
    sqrt(1/n) over the n firms.  A non-finite AR or StAR raises ValueError.
    """
    if not results:
        raise ValueError("aggregate requires at least one firm result")
    offsets = windows.event.offsets()
    n_days = offsets.shape[0]
    for res in results:
        if res.ar.shape[0] != n_days or res.star.shape[0] != n_days:
            raise MisalignedOffsets(
                f"{res.firm_id}: event vectors must have {n_days} entries aligned to "
                f"[{windows.event.lo}, {windows.event.hi}]"
            )
    # one row per day, so each day reduces a contiguous vector over the firms
    ar = np.column_stack([res.ar for res in results])
    star = np.column_stack([res.star for res in results])
    if not (np.isfinite(ar).all() and np.isfinite(star).all()):
        raise ValueError("aggregate requires finite abnormal and standardized abnormal returns")
    weights = np.array([res.weight for res in results])
    w = weights / weights.sum()
    scale = np.sqrt(1.0 / len(results))
    aar = np.array([float(w @ row) for row in ar])
    z = np.array([float(np.sum(row) * scale) for row in star])

    return EventPanelResult(
        offsets=offsets,
        aar=aar,
        car=np.cumsum(aar),
        z=z,
        cz_full_window=float(np.sum(z) * np.sqrt(1.0 / n_days)),
    )


def variance_ratio_report(
    returns_by_firm: Mapping[str, tuple[np.ndarray, int]],
    windows: EventWindows,
) -> tuple[VarianceRatioRow, ...]:
    """Per-firm post/pre variance ratio with a two-sided F-test, one row per firm.

    `returns_by_firm` maps firm id to (values, day0): raw returns
    consecutive in event time, with day 0 at position `day0`.  A firm
    whose returns do not cover both windows, or is degenerate (a one-day
    window or zero variance), gets an error row; the others proceed.
    """
    rows: list[VarianceRatioRow] = []
    for firm_id, (values, day0) in returns_by_firm.items():
        try:
            pre = _window(values, day0, windows.pre_var)
            post = _window(values, day0, windows.post_var)
            result = variance_f_test(post, pre)
        except (DegenerateSample, WindowOutOfData) as exc:
            rows.append(VarianceRatioRow(firm_id=firm_id, f_result=None, error=str(exc)))
            continue
        rows.append(VarianceRatioRow(firm_id=firm_id, f_result=result))
    return tuple(rows)


def study_firm(
    firm_id: str,
    returns,
    local_index,
    us_index,
    day0: int,
    windows: EventWindows,
    weight: float,
    max_p: int = 1,
    max_q: int = 1,
) -> FirmEventResult:
    """Run the per-firm pipeline: estimation-window fit, AR, StAR, and diagnostics.

    `returns`, `local_index`, and `us_index` are aligned vectors,
    consecutive in event time, with day 0 at position `day0`; they must
    cover the estimation and event windows (else WindowOutOfData).  The
    market model sees only the estimation window, with lags selected up to
    (max_p, max_q).  ARs use the GARCH mean coefficients; StARs and the
    residual diagnostics use the same window's OLS fit, `fit.ols`.
    """
    r = np.asarray(returns, dtype=float).ravel()
    loc = np.asarray(local_index, dtype=float).ravel()
    us = np.asarray(us_index, dtype=float).ravel()
    if not (r.shape == loc.shape == us.shape):
        raise MisalignedOffsets(f"{firm_id}: returns and indexes must have equal length")

    y_est, loc_est, us_est = (_window(v, day0, windows.estimation) for v in (r, loc, us))
    _, fit = select_lags(y_est, loc_est, us_est, max_p=max_p, max_q=max_q)

    r_ev, loc_ev, us_ev = (_window(v, day0, windows.event) for v in (r, loc, us))
    ar = abnormal_returns(r_ev, loc_ev, us_ev, fit.mean_coefficients)
    star = standardize(ar, fit.ols, loc_ev, us_ev)
    return FirmEventResult(
        firm_id=firm_id,
        ar=ar,
        star=star,
        weight=weight,
        fit=fit,
        diagnostics=diagnostics_report(fit.ols, [loc_est, us_est]),
    )


def run_event_study(
    records: Sequence[InstrumentRecord],
    load_prices: Callable[[InstrumentRecord], PriceSeries],
    local_index: PriceSeries,
    us_index: PriceSeries,
    fx: RateSeries | None,
    windows: EventWindows,
    max_p: int = 1,
    max_q: int = 1,
) -> EventStudyResult:
    """Study each manifest firm, then cap-weight, aggregate and compare variances.

    A firm's closes come from `load_prices(record)`, in USD when `fx` is
    given, and its aligned returns must cover the span of all four windows.
    `firms` holds the analyzed firms with their cap weights.  A firm whose
    load or study raises a CrosslistError or OSError is skipped: `skipped`
    maps its id to that error, in manifest order.
    """
    ranges = vars(windows).values()
    span = OffsetRange(min(w.lo for w in ranges), max(w.hi for w in ranges))
    firms = []
    returns_by_firm = {}
    skipped: dict[str, Exception] = {}
    for rec in records:
        try:
            prices = load_prices(rec)
            if fx is not None:
                prices = market_data.convert_to_usd(prices, fx)
            panel = market_data.align([prices, local_index, us_index])
            # a return is dated by its second close, so day 0 sits one place earlier
            day0 = market_data.build_event_frame(panel, rec.us_listing_date) - 1
            returns, loc_ret, us_ret = (np.diff(np.log(v)) for v in panel.closes)
            _window(returns, day0, span)  # raises, naming the coverage, unless every window is covered
            firms.append(study_firm(
                rec.n_code, returns, loc_ret, us_ret, day0, windows,
                weight=1.0, max_p=max_p, max_q=max_q,
            ))
            returns_by_firm[rec.n_code] = (returns, day0)
        except (CrosslistError, OSError) as exc:
            skipped[rec.n_code] = exc
    usd = fx is not None
    if not firms:
        return EventStudyResult(firms=(), skipped=skipped, panel=None, variance=None, windows=windows, usd=usd)

    weights = cap_weights(records, [res.firm_id for res in firms])
    firms = tuple(replace(res, weight=weights[res.firm_id]) for res in firms)
    return EventStudyResult(
        firms=firms,
        skipped=skipped,
        panel=aggregate(firms, windows),
        variance=variance_ratio_report(returns_by_firm, windows),
        windows=windows,
        usd=usd,
    )


def _fmt(value) -> str:
    """Report numbers at nine significant digits with a decimal point, booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header.split(","))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_event_reports(result: EventStudyResult, out_dir: Path) -> None:
    """Write the four reports under out_dir; a study with no panel raises ValueError and creates nothing."""
    panel = result.panel
    if panel is None:
        raise ValueError("no event-study reports to write: every firm was skipped")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "coefficients.csv", COEFFICIENTS_CSV_HEADER, (
        [res.firm_id, *res.fit.mean_coefficients.tolist(), res.fit.spec.q, res.fit.spec.p, res.weight]
        for res in result.firms
    ))

    # Python numbers throughout, so the significance cell is a bool, never np.bool_
    _write_csv(out_dir / "event.csv", EVENT_CSV_HEADER, (
        [offset, aar, car, z, abs(z) > Z_CRITICAL_5PCT]
        for offset, aar, car, z in zip(
            panel.offsets.tolist(), panel.aar.tolist(), panel.car.tolist(), panel.z.tolist()
        )
    ))

    _write_csv(out_dir / "variance.csv", VARIANCE_CSV_HEADER, (
        [row.firm_id, "nan", "nan", "nan", "error"] if row.error is not None else [
            row.firm_id,
            float(row.f_result.ratio),
            float(row.f_result.ratio),
            float(row.f_result.p_value),
            bool(row.f_result.significant_5pct),
        ]
        for row in result.variance
    ))

    day0 = -result.windows.event.lo  # the panel's offsets run over the event window, which holds day 0
    summary = {
        "n_firms_analyzed": len(result.firms),
        "n_firms_skipped": len(result.skipped),
        "skipped": {firm_id: str(exc) for firm_id, exc in result.skipped.items()},
        "currency_mode": "usd" if result.usd else "local-currency",
        "day0_aar": float(panel.aar[day0]),
        "day0_z": float(panel.z[day0]),
        "day0_significant_5pct": bool(abs(panel.z[day0]) > Z_CRITICAL_5PCT),
        "cz_full_window": panel.cz_full_window,
        "car_full_window": float(panel.car[-1]),
        "windows": {name: [window.lo, window.hi] for name, window in vars(result.windows).items()},
        "diagnostics": {
            res.firm_id: {
                "dw": res.diagnostics.dw_statistic,
                "bg_p_value": res.diagnostics.bg_p_value,
                "heteroskedastic_5pct": res.diagnostics.heteroskedastic_5pct,
                "converged": res.fit.converged,
            }
            for res in result.firms
        },
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
