"""Event-study pipeline: event windows, abnormal returns from the fitted
market model, cap-weighted averaging, cumulative abnormal returns,
standardized abnormal returns, Z / cumulative-Z statistics, and pre/post
variance-ratio reports.

`run_event_study` runs the whole study over a manifest, one firm at a
time, skipping a firm that fails; `aggregate` is a deterministic reduction
over the per-firm results.  Days on which a firm has no data are carried
as NaN and excluded from that day's cross-section (weights renormalize
over the firms present), never interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .garch import GarchFit, select_lags
from .linear_models import DiagnosticsReport, OlsFit, diagnostics_report, prediction_se
from .market_data import InstrumentRecord, PriceSeries, RateSeries
from .stats_core import FTestResult, variance_f_test

Z_CRITICAL_5PCT = 1.96


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

MIN_ESTIMATION_LENGTH = 30


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
        if self.estimation.length < MIN_ESTIMATION_LENGTH:
            raise ValueError(
                f"estimation window must span >= {MIN_ESTIMATION_LENGTH} days, "
                f"got {self.estimation.length}"
            )
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
    abnormal returns scaled by sqrt(1/n_t), and cz_full_window the
    time-cumulated z over the whole event window.
    """

    offsets: np.ndarray
    aar: np.ndarray
    car: np.ndarray
    z: np.ndarray
    cz_full_window: float
    n_firms_by_day: np.ndarray

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
class VarianceRatioReport:
    rows: tuple[VarianceRatioRow, ...]


@dataclass(frozen=True)
class EventStudyResult:
    """What `run_event_study` found; `panel` and `variance` are None when every firm was skipped."""

    firms: tuple[FirmEventResult, ...]
    skipped: Mapping[str, Exception]
    panel: EventPanelResult | None
    variance: VarianceRatioReport | None


def window_values(values, offsets, window: OffsetRange, fill_missing: bool = False) -> np.ndarray:
    """Select the observations whose event-time offsets fall inside `window`.

    With fill_missing the result always has window.length entries, NaN
    where the offset is absent; otherwise only present observations are
    returned and an entirely uncovered window raises WindowOutOfData.
    """
    values = np.asarray(values, dtype=float).ravel()
    offsets = np.asarray(offsets)
    if values.shape != offsets.shape:
        raise MisalignedOffsets("values and offsets must have equal length")
    mask = (offsets >= window.lo) & (offsets <= window.hi)
    if fill_missing:
        out = np.full(window.length, np.nan)
        out[offsets[mask] - window.lo] = values[mask]
        return out
    if not mask.any():
        raise WindowOutOfData(f"no observations inside [{window.lo}, {window.hi}]")
    return values[mask]


def abnormal_returns(firm_returns, local_index, us_index, mean_coefficients) -> np.ndarray:
    """Realized minus model-implied returns, elementwise over aligned vectors.

    `mean_coefficients` is the (intercept, local, US) vector of a fitted
    market model; the fit must come from data strictly before the event
    window.  NaN inputs (days a firm lacks data) yield NaN outputs.
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

    aar_t cap-weights the abnormal returns of the firms with data on day t
    (weights renormalized to sum to one that day); car is the running sum
    of aar from the window start; z_t sums standardized abnormal returns
    unweighted, scaled by sqrt(1/n_t).
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
    ar = np.vstack([res.ar for res in results])
    star = np.vstack([res.star for res in results])
    weights = np.array([res.weight for res in results])
    valid = np.isfinite(ar)

    aar = np.full(n_days, np.nan)
    z = np.full(n_days, np.nan)
    n_firms = valid.sum(axis=0)
    for t in range(n_days):
        m = valid[:, t]
        if not m.any():
            continue
        w = weights[m] / weights[m].sum()
        if abs(w.sum() - 1.0) > 1e-12:
            raise RuntimeError("renormalized weights do not sum to one")
        aar[t] = float(w @ ar[m, t])
        z[t] = float(np.sum(star[m, t]) * np.sqrt(1.0 / m.sum()))

    return EventPanelResult(
        offsets=offsets,
        aar=aar,
        car=np.cumsum(aar),
        z=z,
        cz_full_window=float(np.sum(z) * np.sqrt(1.0 / n_days)),
        n_firms_by_day=n_firms,
    )


def variance_ratio_report(
    returns_by_firm: Mapping[str, tuple[np.ndarray, np.ndarray]],
    windows: EventWindows,
) -> VarianceRatioReport:
    """Per-firm post/pre variance ratio with a two-sided F-test.

    `returns_by_firm` maps firm id to (values, offsets) of its raw returns
    in event time.  A degenerate firm (too few observations or zero
    variance in either window) gets an error row; the others proceed.
    """
    rows: list[VarianceRatioRow] = []
    for firm_id, (values, offsets) in returns_by_firm.items():
        try:
            pre = window_values(values, offsets, windows.pre_var)
            post = window_values(values, offsets, windows.post_var)
            result = variance_f_test(post, pre)
        except (DegenerateSample, WindowOutOfData) as exc:
            rows.append(VarianceRatioRow(firm_id=firm_id, f_result=None, error=str(exc)))
            continue
        rows.append(VarianceRatioRow(firm_id=firm_id, f_result=result))
    return VarianceRatioReport(rows=tuple(rows))


def study_firm(
    firm_id: str,
    returns,
    local_index,
    us_index,
    offsets,
    windows: EventWindows,
    weight: float,
    max_p: int = 1,
    max_q: int = 1,
) -> FirmEventResult:
    """Run the per-firm pipeline: estimation-window fit, AR, StAR, and diagnostics.

    `returns`, `local_index`, and `us_index` are aligned vectors with
    event-time `offsets`.  The market model sees only observations at
    offsets inside the estimation window, with lags selected up to
    (max_p, max_q).  ARs use the GARCH mean coefficients; StARs and the
    residual diagnostics use the same window's OLS fit, `fit.ols`.
    """
    r = np.asarray(returns, dtype=float).ravel()
    loc = np.asarray(local_index, dtype=float).ravel()
    us = np.asarray(us_index, dtype=float).ravel()
    off = np.asarray(offsets)
    if not (r.shape == loc.shape == us.shape == off.shape):
        raise MisalignedOffsets(f"{firm_id}: returns, indexes, and offsets must have equal length")

    est_mask = (off >= windows.estimation.lo) & (off <= windows.estimation.hi)
    if est_mask.sum() < windows.estimation.length:
        raise WindowOutOfData(
            f"{firm_id}: estimation window has {int(est_mask.sum())} of "
            f"{windows.estimation.length} days"
        )
    assert off[est_mask].max() <= windows.estimation.hi  # no event-window leakage

    y_est, loc_est, us_est = r[est_mask], loc[est_mask], us[est_mask]
    _, fit = select_lags(y_est, loc_est, us_est, max_p=max_p, max_q=max_q)

    r_ev = window_values(r, off, windows.event, fill_missing=True)
    loc_ev = window_values(loc, off, windows.event, fill_missing=True)
    us_ev = window_values(us, off, windows.event, fill_missing=True)
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
    given, and its aligned returns must cover every window.  `firms` holds
    the analyzed firms with their cap weights.  A firm whose load or study
    raises a CrosslistError or OSError is skipped: `skipped` maps its id to
    that error, in manifest order.
    """
    lo = min(windows.estimation.lo, windows.pre_var.lo, windows.event.lo)
    hi = max(windows.event.hi, windows.post_var.hi)
    firms = []
    returns_by_firm = {}
    skipped: dict[str, Exception] = {}
    for rec in records:
        try:
            prices = load_prices(rec)
            if fx is not None:
                prices = market_data.convert_to_usd(prices, fx)
            panel = market_data.align([prices, local_index, us_index])
            offsets = market_data.build_event_frame(panel, rec.us_listing_date)[1:]
            returns, loc_ret, us_ret = (np.diff(np.log(v)) for v in panel.closes)
            if offsets.min() > lo or offsets.max() < hi:
                raise WindowOutOfData(
                    f"coverage [{offsets.min()}, {offsets.max()}] does not span [{lo}, {hi}]"
                )
            firms.append(study_firm(
                rec.n_code, returns, loc_ret, us_ret, offsets, windows,
                weight=1.0, max_p=max_p, max_q=max_q,
            ))
            returns_by_firm[rec.n_code] = (returns, offsets)
        except (CrosslistError, OSError) as exc:
            skipped[rec.n_code] = exc
    if not firms:
        return EventStudyResult(firms=(), skipped=skipped, panel=None, variance=None)

    weights = cap_weights(records, [res.firm_id for res in firms])
    firms = tuple(replace(res, weight=weights[res.firm_id]) for res in firms)
    return EventStudyResult(
        firms=firms,
        skipped=skipped,
        panel=aggregate(firms, windows),
        variance=variance_ratio_report(returns_by_firm, windows),
    )
