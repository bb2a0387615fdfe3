"""Ingestion and alignment of price, FX, and yield series.

All loaders validate hard and fail with an error that names the offending
row, so a batch run never silently drops or patches bad input.  Numeric
cells accept a decimal comma (normalized to a decimal point at ingest) and
must be finite; dates must be ISO-8601 `YYYY-MM-DD`; files must be UTF-8.

The dated-value loaders check the file's text: the header line, then one
regular expression that pins every line to `YYYY-MM-DD,<cell>`, then whole
columns (numpy's `datetime64[D]` parse of the dates, `float` over the
values).  Any other file goes through `csv.reader` and the per-row checks,
at per-row speed: they raise the error that names the first bad row, or
load a valid file of another shape (quoted or decimal-comma cells, padded
cells, blank lines, lone-CR line ends, a header in other case).  Dates are
compared and aligned as sorted int64 day numbers (`date.toordinal`).
"""

from __future__ import annotations

import bisect
import csv
import math
import re
from dataclasses import dataclass, field, replace
from datetime import date
from functools import partial, reduce
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

# the one accepted date form; Python 3.11+ `date.fromisoformat` also takes
# forms such as 20060102 and 2006-W01-1, which 3.10 rejects
_YYYY_MM_DD = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
# date(1970, 1, 1).toordinal(): day numbers minus this are numpy's datetime64[D]
_UNIX_EPOCH_ORDINAL = 719163


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
    # `dates` as day numbers, computed once here for alignment and FX conversion
    _days: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "closes", closes)
        if len(self.dates) != closes.shape[0]:
            raise ValueError("dates and closes must have equal length")
        if np.any(~np.isfinite(closes)) or np.any(closes <= 0.0):
            raise NonPositivePrice(f"{self.instrument_id}: closes must be finite and > 0")
        days = _day_numbers(self.dates)
        if np.any(np.diff(days) <= 0):
            raise ValueError(f"{self.instrument_id}: dates must be strictly increasing")
        object.__setattr__(self, "_days", days)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class RateSeries:
    """Dated scalar rates (FX conversion rates or annual yields in percent).

    The loaders produce strictly increasing dates; `convert_to_usd` requires them.
    """

    dates: tuple[date, ...]
    values: np.ndarray
    # `dates` as day numbers, computed once here for FX conversion
    _days: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_days", _day_numbers(self.dates))


@dataclass(frozen=True)
class AlignedPanel:
    """Closes for several series restricted to their common trading dates.

    `closes` holds one array per input series, in the order given to `align`.
    """

    common_dates: tuple[date, ...]
    closes: tuple[np.ndarray, ...]


def _to_float(text: str) -> float:
    t = text.strip()
    if "," in t and "." not in t:
        t = t.replace(",", ".")
    return float(t)


def _to_date(text: str) -> date:
    t = text.strip()
    if not re.fullmatch(_YYYY_MM_DD, t):
        raise ValueError(f"{t!r} is not a YYYY-MM-DD date")
    return date.fromisoformat(t)


def _day_numbers(dates: Sequence[date]) -> np.ndarray:
    return np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=len(dates))


def _read_rows(path: str | Path, expected_header: Sequence[str]) -> list[list[str]]:
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = [row for row in csv.reader(f) if "".join(row).strip()]
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


def _parse_text(
    path: str | Path, columns: Sequence[str], *, require_positive: bool
) -> tuple[tuple[date, ...], np.ndarray] | None:
    """Every check of `_check_rows`, made on the file's text; None if any fails.

    Takes a file only where `csv.reader` would split every line into the same
    two cells: the header line is exactly `columns`, and every other line is
    `YYYY-MM-DD,<cell>` ended by LF or CRLF (the last line may have no end),
    where the cell holds no comma, quote or line break and fits csv's field
    size limit.  `float` drops the padding `_to_float` strips, or fails;
    numpy parses the dates as `date.fromisoformat` does, except year 0.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
            head, _, body = f.read().partition("\n")
    except UnicodeDecodeError:
        return None
    # re takes repeat counts below 2**32; a longer cell only sends the file per row
    limit = min(csv.field_size_limit(), 2**31)
    line = f'{_YYYY_MM_DD},[^,"\r\n]{{0,{limit}}}'
    if head.removesuffix("\r") != ",".join(columns) or not re.fullmatch(
        f"(?:{line}\r?\n)*(?:{line})?", body
    ):
        return None
    cells = body.removesuffix("\n").replace("\n", ",").split(",") if body else []
    try:
        days = np.array(cells[0::2], dtype="datetime64[D]")
        values = np.fromiter(map(float, cells[1::2]), dtype=float, count=len(days))
    except ValueError:
        return None
    ordinals = days.view(np.int64) + _UNIX_EPOCH_ORDINAL
    if (
        np.any(ordinals[:1] < 1)
        or np.any(np.diff(ordinals) <= 0)
        or not np.all(np.isfinite(values))
        or (require_positive and np.any(values <= 0))
    ):
        return None
    return tuple(days.tolist()), values


def _check_rows(
    path: str | Path,
    columns: Sequence[str],
    rows: list[list[str]],
    *,
    require_positive: bool,
) -> tuple[tuple[date, ...], np.ndarray]:
    """The per-row checks: raise the error naming the first bad row, else return.

    Loading runs them only on a file that `_parse_text` does not take;
    the tests use them as the reference that the text checks must match.
    """
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


def _load_dated_values(
    path: str | Path,
    columns: Sequence[str],
    *,
    require_positive: bool,
) -> tuple[tuple[date, ...], np.ndarray]:
    parsed = _parse_text(path, columns, require_positive=require_positive)
    if parsed is None:
        return _check_rows(path, columns, _read_rows(path, columns), require_positive=require_positive)
    return parsed


def load_prices(path: str | Path) -> PriceSeries:
    """Load a two-column `date,close` CSV; the instrument id is the file stem."""
    dates, closes = _load_dated_values(path, PRICE_COLUMNS, require_positive=True)
    return PriceSeries(instrument_id=Path(path).stem, dates=dates, closes=closes)


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
    numpy formats the day numbers as `date.isoformat` does, for years 1-9999.
    """
    days = np.datetime_as_string((series._days - _UNIX_EPOCH_ORDINAL).view("datetime64[D]"))
    lines = [f"{d},{c!r}\n" for d, c in zip(days.tolist(), series.closes.tolist())]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(PRICE_COLUMNS) + "\n")
        f.write("".join(lines))


def _shared_positions(day_numbers: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Positions, in each strictly increasing day-number array, of the days all share."""
    common = reduce(partial(np.intersect1d, assume_unique=True), day_numbers)
    return [np.searchsorted(days, common) for days in day_numbers]


def _fx_positions(series: PriceSeries, fx: RateSeries) -> tuple[np.ndarray, np.ndarray]:
    """Positions, in `series` and in the FX series (strictly increasing), of the dates both hold.

    One binary search per series date, which costs less than `_shared_positions`'s
    sort of both arrays (`validate` runs it for every firm).  Raises
    EmptyIntersection, naming the series, if they share no date.
    """
    at = np.searchsorted(fx._days, series._days)
    # a series date is an FX date when the FX date at its insertion point equals it
    keep = np.flatnonzero(fx._days.take(at, mode="clip") == series._days) if fx._days.size else at[:0]
    if keep.size == 0:
        raise EmptyIntersection(f"{series.instrument_id}: no dates shared with the FX series")
    return keep, at[keep]


def convert_to_usd(series: PriceSeries, fx: RateSeries) -> PriceSeries:
    """Multiply closes by the same-date FX rate, restricted to dates with a rate."""
    if np.any(np.diff(fx._days) <= 0):
        raise ValueError("FX dates must be strictly increasing")
    keep, at = _fx_positions(series, fx)
    dates = tuple(map(series.dates.__getitem__, keep.tolist()))
    closes = series.closes[keep] * fx.values[at]
    return replace(series, dates=dates, closes=closes)


def align(series: Sequence[PriceSeries]) -> AlignedPanel:
    """Restrict every series to the intersection of all series' trading dates.

    Needed because exchange calendars differ (e.g. SSE and NYSE holidays);
    returns must be contemporaneous before they enter a joint regression.
    The panel's closes follow the input order, so series may share an id.
    """
    if not series:
        raise ValueError("align requires at least one series")
    positions = _shared_positions([s._days for s in series])
    if positions[0].size == 0:
        raise EmptyIntersection("input series share no trading dates")
    common_dates = tuple(map(series[0].dates.__getitem__, positions[0].tolist()))
    closes = tuple(s.closes[pos] for s, pos in zip(series, positions))
    return AlignedPanel(common_dates=common_dates, closes=closes)


def build_event_frame(panel: AlignedPanel, event_date: date) -> np.ndarray:
    """The signed trading-day offset of each panel date around the event, as int64.

    Day 0 is the event date itself when it is a panel date, otherwise the
    first panel date after it (listings on non-trading days roll forward).
    """
    dates = panel.common_dates
    if event_date > dates[-1]:
        raise EventAfterPanelEnd(
            f"event date {event_date.isoformat()} is after the last panel date {dates[-1].isoformat()}"
        )
    return np.arange(len(dates), dtype=np.int64) - bisect.bisect_left(dates, event_date)
