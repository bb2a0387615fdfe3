"""Property tests of the loaders and of calendar alignment.

Every loader, fed arbitrary input, either returns or raises CrosslistError.
Two kinds of input per loader: arbitrary bytes, and a CSV with the right
header whose rows mix cells valid for their column with arbitrary ones, so
that rows get past the first checks and reach the later ones (duplicate
codes, repeated or unsorted dates, non-positive or non-finite numbers).

The dated-value loaders check the file's text and fall back to the per-row
checks to name the first bad row, or to read a shape the text check does not
take; on any file, in any line ending or quoting `csv.reader` reads, the
two must agree.
`align` and `convert_to_usd` must agree with set-based references, and
`write_prices` with a `csv.writer` reference byte for byte.
"""

import csv
import io
import math
import sys
from datetime import date, timedelta
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosslist import market_data
from crosslist.errors import CrosslistError, EmptyIntersection
from crosslist.market_data import (
    FX_COLUMNS,
    MANIFEST_COLUMNS,
    PRICE_COLUMNS,
    RISK_FREE_COLUMNS,
    PriceSeries,
    RateSeries,
    _check_rows,
    _load_dated_values,
    _read_rows,
    _shared_positions,
    align,
    convert_to_usd,
    load_fx,
    load_manifest,
    load_prices,
    load_risk_free,
    write_prices,
)

from .support import align_reference, convert_to_usd_reference, write_prices_reference

LOADERS = {
    "manifest": (load_manifest, MANIFEST_COLUMNS),
    "prices": (load_prices, PRICE_COLUMNS),
    "fx": (load_fx, FX_COLUMNS),
    "risk_free": (load_risk_free, RISK_FREE_COLUMNS),
}
NUMERIC_COLUMNS = {"close", "rate", "annual_yield_pct", "market_cap_usd"}

PROPERTY = settings(max_examples=60, deadline=None)

# UTF-8 cannot encode lone surrogates, so the written file could not hold them
arbitrary = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
    st.floats().map(repr),
    st.floats().map(lambda v: repr(v).replace(".", ",")),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "0", "-1", "2006-02-30"]),
)
# a ten-day range, so repeated and out-of-order dates are common
valid = {
    "date": st.dates(date(2006, 1, 1), date(2006, 1, 10)).map(date.isoformat),
    "number": st.floats(1e-6, 1e12).map(repr),
    "name": st.sampled_from(["A", "B", "prices_A.csv"]),
}


def _cell(column: str):
    kind = "date" if "date" in column else "number" if column in NUMERIC_COLUMNS else "name"
    return st.one_of(valid[kind], valid[kind], valid[kind], arbitrary)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("loader_properties")


def _load_or_crosslist_error(loader, path: Path) -> None:
    try:
        loader(path)
    except CrosslistError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_arbitrary_bytes(work, kind):
    loader, _ = LOADERS[kind]
    path = work / f"bytes_{kind}.csv"

    @PROPERTY
    @given(data=st.binary(max_size=512))
    def check(data):
        path.write_bytes(data)
        _load_or_crosslist_error(loader, path)

    check()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_well_formed_csv_arbitrary_cells(work, kind):
    loader, columns = LOADERS[kind]
    path = work / f"cells_{kind}.csv"
    rows = st.lists(
        st.one_of(
            st.tuples(*[_cell(c) for c in columns]),
            st.lists(arbitrary, min_size=len(columns) - 1, max_size=len(columns) + 1),
        ),
        max_size=6,
    )

    @PROPERTY
    @given(rows=rows)
    def check(rows):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        _load_or_crosslist_error(loader, path)

    check()


DAY0 = date(2006, 1, 2)
# str.strip removes all of these; float() alone rejects the \x1c..\x1f separators
PAD = st.sampled_from(["", "", " ", "\t", "\x1c", "\u3000"])
number = st.one_of(
    st.floats(1e-6, 1e12).map(repr),
    st.floats(1e-6, 1e12).map(lambda v: repr(v).replace(".", ",")),
    st.floats(-50.0, 50.0).map(repr),
    st.sampled_from(["1_000", "7", "-0"]),
)
bad_date = st.sampled_from(
    ["", " ", "20060103", "2006-W01-2", "2006-1-03", "2006-02-30", "03.01.2006", "x"]
)
bad_value = st.sampled_from(
    ["", " ", "nan", "inf", "-inf", "1e400", "0", "-1.5", "0,0", "1,000.5", "1.5,", "abc"]
)


def _padded(text: str, pad=PAD):
    return st.tuples(pad, pad).map(lambda pads: pads[0] + text + pads[1])


@st.composite
def dated_rows(draw, pad=PAD, value=number):
    """The rows of a valid file, then up to three edits that may break it."""
    rows = [
        [
            draw(_padded((DAY0 + timedelta(days=day)).isoformat(), pad)),
            draw(value.flatmap(lambda text: _padded(text, pad))),
        ]
        for day in sorted(draw(st.sets(st.integers(0, 40), max_size=10)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["blank", "date", "value", "fields", "swap", "repeat"]))
        i = draw(st.integers(0, len(rows)))
        if edit == "blank":
            rows.insert(i, draw(st.sampled_from([[], [""], ["", " "], ["\t"]])))
        elif i == len(rows) or len(rows[i]) != 2:
            continue
        elif edit == "date":
            rows[i][0] = draw(bad_date)
        elif edit == "value":
            rows[i][1] = draw(bad_value)
        elif edit == "fields":
            rows[i] = rows[i][:1] if draw(st.booleans()) else rows[i] + [draw(number)]
        elif edit == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows.insert(i, list(rows[i]))
    return rows


# every file shape csv.reader takes, as csv.writer options and whether the
# last line keeps its terminator
FILE_SHAPES = {
    "lf": ({"lineterminator": "\n"}, True),
    "crlf": ({"lineterminator": "\r\n"}, True),
    "cr": ({"lineterminator": "\r"}, True),
    "unended": ({"lineterminator": "\n"}, False),
    "quote_all": ({"lineterminator": "\n", "quoting": csv.QUOTE_ALL}, True),
}


def _write_dated(path: Path, columns, rows, shape: str) -> None:
    options, ended = FILE_SHAPES[shape]
    buffer = io.StringIO()
    writer = csv.writer(buffer, **options)
    writer.writerow(columns)
    writer.writerows(rows)
    text = buffer.getvalue()
    path.write_text(text if ended else text.removesuffix(options["lineterminator"]), "utf-8", newline="")


def _outcome(load):
    try:
        dates, values = load()
    except CrosslistError as exc:
        return type(exc), str(exc)
    return dates.tolist(), values.tolist()


@pytest.mark.parametrize(
    "columns, positive",
    [(PRICE_COLUMNS, True), (FX_COLUMNS, True), (RISK_FREE_COLUMNS, False)],
    ids=["prices", "fx", "risk_free"],
)
def test_column_checks_match_row_checks(work, columns, positive):
    path = work / f"columns_{columns[1]}.csv"
    seen = {"loaded": 0, "rejected": 0}
    shapes = set()

    @settings(max_examples=200, deadline=None)
    @given(rows=dated_rows(), shape=st.sampled_from(sorted(FILE_SHAPES)))
    def check(rows, shape):
        _write_dated(path, columns, rows, shape)
        shapes.add(shape)
        by_column = _outcome(lambda: _load_dated_values(path, columns, require_positive=positive))
        by_row = _outcome(
            lambda: _check_rows(path, columns, _read_rows(path, columns), require_positive=positive)
        )
        assert by_column == by_row
        seen["rejected" if isinstance(by_row[0], type) else "loaded"] += 1

    check()
    assert seen["loaded"] and seen["rejected"]
    assert shapes == set(FILE_SHAPES)


def _each_shape(test):
    """Run `test` on one two-row file that loads, in every file shape."""
    for shape in sorted(FILE_SHAPES):
        test = example(rows=[["2006-01-02", "1.5"], ["2006-01-03", "2.5"]], shape=shape)(test)
    return test


@pytest.mark.parametrize(
    "columns, positive",
    [(PRICE_COLUMNS, True), (FX_COLUMNS, True), (RISK_FREE_COLUMNS, False)],
    ids=["prices", "fx", "risk_free"],
)
def test_text_check_takes_unpadded_files(work, monkeypatch, columns, positive):
    # unpadded cells reach the text check's own parse far more often than
    # the padded ones above; it must still agree with the per-row checks,
    # and take the LF, CRLF and unended files of more than one row that load
    path = work / f"text_{columns[1]}.csv"
    per_row = []
    monkeypatch.setattr(
        market_data, "_check_rows", lambda *args, **kwargs: per_row.append(1) or _check_rows(*args, **kwargs)
    )
    by_text = set()
    plain = st.floats(1e-6, 1e12).map(repr)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=dated_rows(pad=st.just(""), value=st.one_of(plain, plain, number)),
        shape=st.sampled_from(sorted(FILE_SHAPES)),
    )
    @_each_shape
    def check(rows, shape):
        _write_dated(path, columns, rows, shape)
        per_row.clear()
        by_column = _outcome(lambda: _load_dated_values(path, columns, require_positive=positive))
        by_row = _outcome(
            lambda: _check_rows(path, columns, _read_rows(path, columns), require_positive=positive)
        )
        assert by_column == by_row
        if not per_row and len(by_column[0]) > 1:
            by_text.add(shape)

    check()
    assert by_text == {"lf", "crlf", "unended"}


def _series(name: str, days, offset: float) -> PriceSeries:
    # each close encodes its own day, so a close picked from the wrong row shows
    days = sorted(days)
    dates = tuple(DAY0 + timedelta(days=d) for d in days)
    return PriceSeries(name, dates, np.array(days, dtype=float) + offset)


calendar = st.sets(st.integers(0, 30), max_size=25)


@PROPERTY
@given(calendars=st.lists(calendar, min_size=1, max_size=4), fx_days=calendar)
def test_align_and_convert_match_set_reference(calendars, fx_days):
    series = [_series(f"s{k}", days, 1.0 + 100.0 * k) for k, days in enumerate(calendars)]
    fx_days = sorted(fx_days)
    fx = RateSeries(
        dates=tuple(DAY0 + timedelta(days=d) for d in fx_days),
        values=1.0 + np.array(fx_days, dtype=float) / 64.0,
    )

    want_dates, want_closes = convert_to_usd_reference(series[0], fx)
    if not want_dates:
        with pytest.raises(EmptyIntersection):
            convert_to_usd(series[0], fx)
        converted = series
    else:
        usd = convert_to_usd(series[0], fx)
        assert tuple(usd.dates.tolist()) == want_dates
        assert usd.closes.tolist() == want_closes.tolist()
        converted = [usd] + series[1:]  # a replaced series must align on its new dates

    for panel_input in (series, converted):
        want_common, want_closes = align_reference(panel_input)
        if not want_common:
            with pytest.raises(EmptyIntersection):
                align(panel_input)
            continue
        panel = align(panel_input)
        assert tuple(panel.common_dates.tolist()) == want_common
        assert len(panel.closes) == len(want_closes)
        for got, closes in zip(panel.closes, want_closes):
            assert got.tolist() == closes.tolist()


@PROPERTY
@given(calendars=st.lists(calendar, min_size=1, max_size=4))
def test_shared_positions_match_intersect1d(calendars):
    arrays = [np.array(sorted(days), dtype=np.int64) for days in calendars]
    # every rotation, so the shortest array takes every position
    for turn in range(len(arrays)):
        rotated = arrays[turn:] + arrays[:turn]
        common = reduce(np.intersect1d, rotated)
        positions = _shared_positions(rotated)
        assert len(positions) == len(rotated)
        for days, got in zip(rotated, positions):
            assert got.tolist() == np.searchsorted(days, common).tolist()


# positive finite doubles, with the subnormals and the ends of the date range drawn often
close = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=5e-324, max_value=math.nextafter(sys.float_info.min, 0.0)),
)
any_date = st.one_of(
    st.dates(), st.sampled_from([date.min, date(999, 12, 31), date(1000, 1, 1), date.max])
)


@st.composite
def price_series(draw) -> PriceSeries:
    dates = sorted(draw(st.sets(any_date, min_size=1, max_size=30)))
    closes = draw(st.lists(close, min_size=len(dates), max_size=len(dates)))
    return PriceSeries("written", tuple(dates), np.array(closes))


def test_writer_matches_reference(work):
    path = work / "written.csv"

    @settings(max_examples=200, deadline=None)
    @given(series=price_series())
    def check(series):
        write_prices(series, path)
        assert path.read_bytes() == write_prices_reference(series)

    check()
