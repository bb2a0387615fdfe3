"""Ingestion and alignment of price, FX, and yield series.

All loaders validate hard and fail with an error that names the offending
row, so a batch run never silently drops or patches bad input.  Numeric
cells accept a decimal comma (normalized to a decimal point at ingest) and
must be finite; dates must be ISO-8601; files must be UTF-8.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateCode,
    DuplicateDate,
    EmptyIntersection,
    EventAfterPanelEnd,
    MissingField,
    NonPositiveMarketCap,
    NonPositivePrice,
    UndecodableFile,
    UnparsableDate,
    UnsortedInputAfterParse,
)

MANIFEST_COLUMNS = (
    "name",
    "a_code",
    "n_code",
    "industry",
    "market_cap_usd",
    "us_listing_date",
    "local_listing_date",
    "price_file",
)

PRICE_COLUMNS = ("date", "close")
FX_COLUMNS = ("date", "rate")
RISK_FREE_COLUMNS = ("date", "annual_yield_pct")


class Currency(str, Enum):
    USD = "USD"
    CNY = "CNY"
    HKD = "HKD"
    OTHER = "OTHER"


@dataclass(frozen=True)
class InstrumentRecord:
    """One dual-listed firm from the instrument manifest."""

    name: str
    a_code: str
    n_code: str
    industry: str
    market_cap_usd: float
    us_listing_date: date
    local_listing_date: date
    price_file: str


@dataclass(frozen=True)
class PriceSeries:
    """Strictly increasing dated closes for one instrument or index."""

    instrument_id: str
    dates: tuple[date, ...]
    closes: np.ndarray
    currency: Currency = Currency.USD

    def __post_init__(self) -> None:
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "closes", closes)
        if len(self.dates) != closes.shape[0]:
            raise ValueError("dates and closes must have equal length")
        if np.any(~np.isfinite(closes)) or np.any(closes <= 0.0):
            raise NonPositivePrice(f"{self.instrument_id}: closes must be finite and > 0")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError(f"{self.instrument_id}: dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class RateSeries:
    """Dated scalar rates (FX conversion rates or annual yields in percent)."""

    dates: tuple[date, ...]
    values: np.ndarray

    def as_mapping(self) -> dict[date, float]:
        return dict(zip(self.dates, self.values.tolist()))


@dataclass(frozen=True)
class AlignedPanel:
    """Closes for several series restricted to their common trading dates."""

    common_dates: tuple[date, ...]
    series_by_id: dict[str, np.ndarray]


@dataclass(frozen=True)
class EventFrame:
    """Signed trading-day offsets around an event date (day 0 = the event)."""

    event_date: date
    day_index: dict[date, int]


def _to_float(text: str) -> float:
    t = text.strip()
    if "," in t and "." not in t:
        t = t.replace(",", ".")
    return float(t)


def _to_date(text: str) -> date:
    return date.fromisoformat(text.strip())


def _read_rows(path: str | Path, expected_header: Sequence[str]) -> list[list[str]]:
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = [row for row in csv.reader(f) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError:
        raise UndecodableFile(f"{path}: not valid UTF-8 text") from None
    except csv.Error as exc:
        raise MissingField(f"{path}: malformed CSV: {exc}") from None
    if not rows:
        raise MissingField(f"{path}: file is empty, expected header {','.join(expected_header)}")
    header = [c.strip().lower() for c in rows[0]]
    if header != list(expected_header):
        raise MissingField(
            f"{path}: header {','.join(header)!r} does not match "
            f"required schema {','.join(expected_header)!r}"
        )
    return rows[1:]


def load_manifest(path: str | Path) -> list[InstrumentRecord]:
    """Read the instrument manifest, enforcing the documented schema.

    Raises MissingField, NonPositiveMarketCap, DuplicateCode, or
    UnparsableDate; each message names the offending data row (1-based,
    excluding the header).  Raises UndecodableFile if the file is not UTF-8.
    """
    rows = _read_rows(path, MANIFEST_COLUMNS)
    records: list[InstrumentRecord] = []
    seen_a: set[str] = set()
    seen_n: set[str] = set()
    for i, row in enumerate(rows, start=1):
        if len(row) != len(MANIFEST_COLUMNS) or any(not c.strip() for c in row):
            raise MissingField(f"row {i}: expected {len(MANIFEST_COLUMNS)} non-empty fields, got {row!r}")
        name, a_code, n_code, industry, cap_text, us_text, local_text, price_file = (
            c.strip() for c in row
        )
        try:
            cap = _to_float(cap_text)
        except ValueError:
            raise MissingField(f"row {i}: market_cap_usd {cap_text!r} is not a number") from None
        if not math.isfinite(cap):
            raise MissingField(f"row {i}: market_cap_usd {cap_text!r} is not a finite number")
        if cap <= 0:
            raise NonPositiveMarketCap(f"row {i}: market_cap_usd must be > 0, got {cap_text!r}")
        try:
            us_listing = _to_date(us_text)
            local_listing = _to_date(local_text)
        except ValueError:
            raise UnparsableDate(f"row {i}: dates must be ISO-8601, got {us_text!r}/{local_text!r}") from None
        if a_code in seen_a or n_code in seen_n:
            raise DuplicateCode(f"row {i}: code {a_code!r}/{n_code!r} already present in manifest")
        seen_a.add(a_code)
        seen_n.add(n_code)
        records.append(
            InstrumentRecord(
                name=name,
                a_code=a_code,
                n_code=n_code,
                industry=industry,
                market_cap_usd=cap,
                us_listing_date=us_listing,
                local_listing_date=local_listing,
                price_file=price_file,
            )
        )
    return records


def _load_dated_values(
    path: str | Path,
    columns: Sequence[str],
    *,
    require_positive: bool,
) -> tuple[tuple[date, ...], np.ndarray]:
    rows = _read_rows(path, columns)
    dates: list[date] = []
    values: list[float] = []
    for i, row in enumerate(rows, start=1):
        if len(row) != 2 or any(not c.strip() for c in row):
            raise MissingField(f"{path}: row {i}: expected 2 non-empty fields, got {row!r}")
        try:
            d = _to_date(row[0])
        except ValueError:
            raise UnparsableDate(f"{path}: row {i}: {row[0]!r} is not an ISO-8601 date") from None
        try:
            v = _to_float(row[1])
        except ValueError:
            raise MissingField(f"{path}: row {i}: {columns[1]} {row[1]!r} is not a number") from None
        if require_positive and v <= 0:
            raise NonPositivePrice(f"{path}: row {i}: {columns[1]} must be > 0, got {row[1]!r}")
        if dates:
            if d == dates[-1]:
                raise DuplicateDate(f"{path}: row {i}: date {d.isoformat()} repeats")
            if d < dates[-1]:
                raise UnsortedInputAfterParse(
                    f"{path}: row {i}: date {d.isoformat()} is earlier than the preceding row"
                )
        dates.append(d)
        values.append(v)
    array = np.asarray(values, dtype=float)
    nonfinite = ~np.isfinite(array)
    if nonfinite.any():
        i = int(np.argmax(nonfinite))
        raise MissingField(
            f"{path}: row {i + 1}: {columns[1]} {rows[i][1]!r} is not a finite number"
        )
    return tuple(dates), array


def load_prices(path: str | Path, currency: Currency = Currency.USD) -> PriceSeries:
    """Load a two-column `date,close` CSV; the instrument id is the file stem."""
    dates, closes = _load_dated_values(path, PRICE_COLUMNS, require_positive=True)
    return PriceSeries(
        instrument_id=Path(path).stem, dates=dates, closes=closes, currency=currency
    )


def load_fx(path: str | Path) -> RateSeries:
    """Load a `date,rate` CSV of USD per one local-currency unit."""
    dates, values = _load_dated_values(path, FX_COLUMNS, require_positive=True)
    return RateSeries(dates=dates, values=values)


def load_risk_free(path: str | Path) -> RateSeries:
    """Load a `date,annual_yield_pct` CSV.  Yields may be negative."""
    dates, values = _load_dated_values(path, RISK_FREE_COLUMNS, require_positive=False)
    return RateSeries(dates=dates, values=values)


def write_prices(series: PriceSeries, path: str | Path) -> None:
    """Write a PriceSeries in the `date,close` format at full float precision.

    repr() round-trips doubles exactly, so load_prices(write_prices(s)) == s.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(PRICE_COLUMNS)
        for d, c in zip(series.dates, series.closes):
            writer.writerow([d.isoformat(), repr(float(c))])


def convert_to_usd(series: PriceSeries, fx: RateSeries) -> PriceSeries:
    """Multiply closes by the same-date FX rate, restricted to dates with a rate."""
    rates = fx.as_mapping()
    keep = [i for i, d in enumerate(series.dates) if d in rates]
    if not keep:
        raise EmptyIntersection(f"{series.instrument_id}: no dates shared with the FX series")
    dates = tuple(series.dates[i] for i in keep)
    closes = series.closes[keep] * np.array([rates[d] for d in dates])
    return replace(series, dates=dates, closes=closes, currency=Currency.USD)


def align(series: Sequence[PriceSeries]) -> AlignedPanel:
    """Restrict every series to the intersection of all series' trading dates.

    Needed because exchange calendars differ (e.g. SSE and NYSE holidays);
    returns must be contemporaneous before they enter a joint regression.
    """
    if not series:
        raise ValueError("align requires at least one series")
    ids = [s.instrument_id for s in series]
    if len(set(ids)) != len(ids):
        raise DuplicateCode(f"duplicate instrument ids in alignment input: {ids}")
    common: set[date] = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        raise EmptyIntersection("input series share no trading dates")
    common_dates = tuple(sorted(common))
    by_id: dict[str, np.ndarray] = {}
    for s in series:
        pos = {d: i for i, d in enumerate(s.dates)}
        by_id[s.instrument_id] = s.closes[[pos[d] for d in common_dates]]
    return AlignedPanel(common_dates=common_dates, series_by_id=by_id)


def build_event_frame(panel: AlignedPanel, event_date: date) -> EventFrame:
    """Map every panel date to a signed trading-day offset around the event.

    Day 0 is the event date itself when it is a panel date, otherwise the
    first panel date after it (listings on non-trading days roll forward).
    """
    dates = panel.common_dates
    if event_date > dates[-1]:
        raise EventAfterPanelEnd(
            f"event date {event_date.isoformat()} is after the last panel date {dates[-1].isoformat()}"
        )
    anchor = next(i for i, d in enumerate(dates) if d >= event_date)
    return EventFrame(
        event_date=event_date,
        day_index={d: i - anchor for i, d in enumerate(dates)},
    )
