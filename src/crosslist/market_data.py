"""Ingestion and alignment of price, FX, and yield series.

All loaders validate hard and fail with an error that names the offending
row, so a batch run never silently drops or patches bad input.  Numeric
cells accept a decimal comma (normalized to a decimal point at ingest),
must be finite and must be ASCII with no `_`; dates must be ISO-8601
`YYYY-MM-DD`; files must be UTF-8, and a byte-order mark is dropped.

The dated-value loaders check an ASCII file's bytes: the header line, then
numpy array checks that pin every line to `YYYY-MM-DD,<cell>` (line starts from
the LF positions, ASCII digits and dashes at the date offsets, one comma per
line at offset 10, no quote, a CR only before an LF, cells within csv's
field size limit), then whole columns (numpy's `datetime64[D]` parse of the
10-byte date fields, `float` over the values).  Any other file goes through
`csv.reader` and the per-row checks, at per-row speed: they raise the error
that names the first bad row, or load a valid file of another shape (quoted
or decimal-comma cells, padded cells, blank lines, lone-CR line ends, a
header in other case).

Each series holds its dates as one `datetime64[D]` array, which the
loaders parse, and alignment, FX conversion, event frames and the writer
use as they are.  Alignment searches the shortest series' dates in each of
the others, one binary search per date.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, fields
from datetime import date
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateCode,
    DuplicateDate,
    EmptyIntersection,
    EventAfterPanelEnd,
    InvalidSeries,
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
# the bytes of a date the text check takes, "0" standing for any ASCII digit
_DATE = np.frombuffer(b"0000-00-00", np.uint8)
_DATE_DIGITS = _DATE == ord("0")
_LF, _CR, _COMMA, _QUOTE = b'\n\r,"'
# the first and last dates `datetime.date` holds, so `.tolist()` of a series' dates gives `date`s
_FIRST_DAY, _LAST_DAY = np.datetime64("0001-01-01"), np.datetime64("9999-12-31")


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


def _dated_arrays(label: str, dates, *values) -> list[np.ndarray]:
    """Read-only views, copying nothing, of a series' `datetime64[D]` dates and float values.

    Raises InvalidSeries, naming `label`, unless the values are 1-D and as long as the dates,
    the dates strictly increase within years 1 to 9999 (a NaT fails), and every value is finite.
    """
    arrays = [np.asarray(dates, dtype="datetime64[D]").view(), *(np.asarray(v, dtype=float).view() for v in values)]
    for array in arrays:
        array.flags.writeable = False  # on the view: an array the caller passed stays writable
    dates, *values = arrays
    if dates.ndim != 1 or any(v.shape != dates.shape for v in values):
        raise InvalidSeries(f"{label}: dates and values must be 1-D arrays of equal length")
    if not np.all(np.diff(dates) > 0):
        raise InvalidSeries(f"{label}: dates must be strictly increasing")
    if dates.size and not (_FIRST_DAY <= dates[0] and dates[-1] <= _LAST_DAY):
        raise InvalidSeries(f"{label}: dates must lie in years 1 to 9999")
    if not all(np.all(np.isfinite(v)) for v in values):
        raise InvalidSeries(f"{label}: values must be finite")
    return arrays


class _DatedSeries:
    """An optional `instrument_id` naming the series in errors, dates (`_DATES`), then values.

    Dates are held as a read-only `datetime64[D]` array, values as read-only float arrays.  Series
    of one type are equal when `np.array_equal` holds on every field; none is hashable.
    """

    _DATES = "dates"

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self) if f.name != "instrument_id"]
        label = getattr(self, "instrument_id", type(self).__name__)
        vars(self).update(zip(names, _dated_arrays(label, *(getattr(self, n) for n in names))))

    def __len__(self) -> int:
        return len(getattr(self, self._DATES))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(np.array_equal(v, vars(other)[k]) for k, v in vars(self).items())


@dataclass(frozen=True, eq=False)
class PriceSeries(_DatedSeries):
    """Strictly increasing dated closes (> 0) for one instrument or index."""

    instrument_id: str
    dates: np.ndarray
    closes: np.ndarray

    def __post_init__(self) -> None:
        closes = np.asarray(self.closes, dtype=float)
        # before the shared checks, so that an inf close is a NonPositivePrice too
        if np.any(~np.isfinite(closes)) or np.any(closes <= 0.0):
            raise NonPositivePrice(f"{self.instrument_id}: closes must be finite and > 0")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class RateSeries(_DatedSeries):
    """Dated scalar rates (FX conversion rates or annual yields in percent).

    Rates may have any sign, as yields may; `load_fx` requires positive FX rates.
    """

    dates: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class AlignedPanel(_DatedSeries):
    """Closes for several series restricted to their common trading dates.

    `closes` holds one array per input series, in the order given to `align`.
    """

    _DATES = "common_dates"
    common_dates: np.ndarray
    closes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dates, *closes = _dated_arrays("AlignedPanel", self.common_dates, *self.closes)
        vars(self).update(common_dates=dates, closes=tuple(closes))


def _to_float(text: str) -> float:
    t = text.strip()
    # `float` also takes digit-group underscores and non-ASCII digits
    if not t.isascii() or "_" in t:
        raise ValueError(f"{text!r} is not an ASCII number")
    if "," in t and "." not in t:
        t = t.replace(",", ".")
    return float(t)


def _to_date(text: str) -> date:
    t = text.strip()
    if not re.fullmatch(_YYYY_MM_DD, t):
        raise ValueError(f"{t!r} is not a YYYY-MM-DD date")
    return date.fromisoformat(t)


def _read_rows(path: str | Path, expected_header: Sequence[str]) -> list[list[str]]:
    path = Path(path)
    try:
        # a UTF-8 byte-order mark is dropped, as it is not part of the header
        with open(path, newline="", encoding="utf-8-sig") as f:
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


def write_manifest(records: Sequence[InstrumentRecord], path: str | Path) -> None:
    """Write the instrument manifest; `load_manifest` of it gives back equal records.

    `str` of a float is its round-tripping repr and of a date its ISO form;
    csv quotes a cell with a comma or a quote.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows([str(getattr(rec, column)) for column in MANIFEST_COLUMNS] for rec in records)


def _parse_text(
    path: str | Path, columns: Sequence[str], *, require_positive: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Every check of `_check_rows`, made on the file's bytes; None if any fails.

    Takes a file only where `csv.reader` would split every line into the same
    two cells: the header line is exactly `columns`, and every other line is
    `YYYY-MM-DD,<cell>` ended by LF or CRLF (the last line may have no end),
    where the cell holds no comma, quote or line break and fits csv's field
    size limit, and the file is ASCII with no `_` after its header (so a
    byte-order mark is declined too).  `float` drops the padding `_to_float`
    strips, or fails; numpy parses the dates as `date.fromisoformat` does,
    except year 0.
    Declines an empty body, which `_check_rows` names.  Returns the dates
    (`datetime64[D]`) and the values.
    """
    with open(path, "rb") as f:
        data = f.read()
    head = data.partition(b"\n")[0]
    if head.removesuffix(b"\r") != ",".join(columns).encode():
        return None
    # `float` also takes `_` digit separators and non-ASCII digits, which `_to_float`
    # refuses; the per-row checks name such a cell, or strip non-ASCII padding
    if not data.isascii() or data.find(b"_", len(head)) != -1:
        return None
    text = data.decode("ascii")
    # the header is ASCII, so the body starts at the same offset in the bytes and the text
    body = np.frombuffer(data, np.uint8)[len(head) + 1 :]
    # a line runs from its start to its LF, or to the end of an unended last line
    ends = np.flatnonzero(body == _LF)
    if body.size and body[-1] != _LF:
        ends = np.append(ends, body.size)
    starts = np.concatenate(([0], ends[:-1] + 1))[: ends.size]
    width = _DATE.size  # the date's bytes; its comma follows
    if not ends.size or np.any(ends - starts < width + 1):
        return None
    # the first bytes of each line, taken from a view that starts an `S10` item at every byte
    fields = np.ndarray((max(body.size - width + 1, 0),), f"S{width}", body, strides=(1,))[starts]
    field_bytes = fields.view(np.uint8).reshape(-1, width)
    # a cell's length in bytes, never below its length in characters, which csv limits
    cell_bytes = ends - starts - (width + 1) - (body[ends - 1] == _CR)
    # each line is a date, the line's one comma and a cell, and a CR comes only before an LF
    if (
        np.any(field_bytes[:, _DATE_DIGITS] - ord("0") > 9)
        or np.any(field_bytes[:, ~_DATE_DIGITS] != ord("-"))
        or np.any(body[starts + width] != _COMMA)
        or np.count_nonzero(body == _COMMA) != ends.size
        or np.any(body == _QUOTE)
        or np.any(body.take(np.flatnonzero(body == _CR) + 1, mode="clip") != _LF)
        or np.any(cell_bytes > csv.field_size_limit())
    ):
        return None
    cells = text[len(head) + 1 :].removesuffix("\n").replace("\n", ",").split(",")
    try:
        dates = fields.astype("datetime64[D]")
        values = np.fromiter(map(float, cells[1::2]), dtype=float, count=dates.size)
    except ValueError:
        return None
    if (
        dates[0] < _FIRST_DAY
        or np.any(np.diff(dates) <= 0)
        or not np.all(np.isfinite(values))
        or (require_positive and np.any(values <= 0))
    ):
        return None
    return dates, values


def _check_rows(
    path: str | Path,
    columns: Sequence[str],
    rows: list[list[str]],
    *,
    require_positive: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-row checks: raise the error naming the first bad row, else return.

    Loading runs them only on a file that `_parse_text` does not take;
    the tests use them as the reference that the text checks must match.
    """
    if not rows:
        raise MissingField(f"{path}: no rows after the header")
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
    return np.array(dates, dtype="datetime64[D]"), array


def _load_dated_values(
    path: str | Path,
    columns: Sequence[str],
    *,
    require_positive: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The dates and values of a dated-value file, or the per-row error.

    A file with no rows after its header is an error, so every series loaded has a date.
    """
    return _parse_text(path, columns, require_positive=require_positive) or _check_rows(
        path, columns, _read_rows(path, columns), require_positive=require_positive
    )


def load_prices(path: str | Path) -> PriceSeries:
    """Load a two-column `date,close` CSV; the instrument id is the file stem."""
    return PriceSeries(Path(path).stem, *_load_dated_values(path, PRICE_COLUMNS, require_positive=True))


def load_fx(path: str | Path) -> RateSeries:
    """Load a `date,rate` CSV of USD per one local-currency unit."""
    return RateSeries(*_load_dated_values(path, FX_COLUMNS, require_positive=True))


def load_risk_free(path: str | Path) -> RateSeries:
    """Load a `date,annual_yield_pct` CSV.  Yields may be negative."""
    return RateSeries(*_load_dated_values(path, RISK_FREE_COLUMNS, require_positive=False))


@lru_cache(maxsize=1)
def _date_prefixes(day_bytes: bytes) -> list[str]:
    """`YYYY-MM-DD,` for each day of a `datetime64[D]` buffer, for the writer.

    Keyed on the dates' bytes, not the array, so a bundle's files share one
    formatted column and an array changed in place is formatted again.
    """
    days = np.datetime_as_string(np.frombuffer(day_bytes, dtype="datetime64[D]"))
    return [d + "," for d in days.tolist()]


def write_prices(series: PriceSeries, path: str | Path) -> None:
    """Write a PriceSeries in the `date,close` format at full float precision.

    repr() round-trips doubles exactly, so `load_prices` of a file named
    `<instrument_id>.csv` gives back a series `==` to this one.  numpy
    formats the dates as `date.isoformat` does, for years 1-9999.
    """
    prefixes = _date_prefixes(series.dates.tobytes())
    body = "".join([f"{d}{c!r}\n" for d, c in zip(prefixes, series.closes.tolist())])
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(PRICE_COLUMNS) + "\n")
        f.write(body)


def _shared_positions(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Positions, in each strictly increasing array (of dates), of the items all share.

    The shortest array's items are searched in each of the others: one binary
    search per item, and an item is shared where every search lands on it.
    """
    shortest = min(range(len(arrays)), key=lambda k: arrays[k].size)
    base = arrays[shortest]
    shared = np.ones(base.size, dtype=bool)
    found = []
    for k, other in enumerate(arrays):
        if k != shortest:
            at = np.searchsorted(other, base)
            # `base` is no longer than `other`, so `other` is empty only when `at` is
            shared &= other.take(at, mode="clip") == base
            found.append(at)
    positions = [at[shared] for at in found]
    positions.insert(shortest, np.flatnonzero(shared))
    return positions


def convert_to_usd(series: PriceSeries, fx: RateSeries) -> PriceSeries:
    """Multiply closes by the same-date FX rate, restricted to dates with a rate.

    Raises EmptyIntersection, naming the series, if it shares no date with the FX series.
    """
    keep, at = _shared_positions([series.dates, fx.dates])
    if keep.size == 0:
        raise EmptyIntersection(f"{series.instrument_id}: no dates shared with the FX series")
    return PriceSeries(series.instrument_id, series.dates[keep], series.closes[keep] * fx.values[at])


def align(series: Sequence[PriceSeries]) -> AlignedPanel:
    """Restrict every series to the intersection of all series' trading dates.

    Needed because exchange calendars differ (e.g. SSE and NYSE holidays);
    returns must be contemporaneous before they enter a joint regression.
    The panel's closes follow the input order, so series may share an id.
    """
    if not series:
        raise ValueError("align requires at least one series")
    positions = _shared_positions([s.dates for s in series])
    if positions[0].size == 0:
        raise EmptyIntersection("input series share no trading dates")
    closes = tuple(s.closes[pos] for s, pos in zip(series, positions))
    return AlignedPanel(common_dates=series[0].dates[positions[0]], closes=closes)


def build_event_frame(panel: AlignedPanel, event_date: date) -> int:
    """The position of day 0 among the panel dates; the date at position k is event day k - day0.

    Day 0 is the event date itself when it is a panel date, otherwise the
    first panel date after it (listings on non-trading days roll forward).
    """
    dates = panel.common_dates
    day = np.datetime64(event_date, "D")
    if day > dates[-1]:
        raise EventAfterPanelEnd(f"event date {day} is after the last panel date {dates[-1]}")
    return int(np.searchsorted(dates, day))
