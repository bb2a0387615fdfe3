"""Manifest/price ingestion, alignment, and event-frame construction."""

import csv
import dataclasses
import io
from datetime import date, timedelta

import numpy as np
import pytest

from crosslist import market_data
from crosslist.cli import generate_bundle
from crosslist.errors import (
    CrosslistError,
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
from crosslist.market_data import (
    PRICE_COLUMNS,
    AlignedPanel,
    InstrumentRecord,
    PriceSeries,
    RateSeries,
    _check_rows,
    _read_rows,
    align,
    build_event_frame,
    convert_to_usd,
    load_fx,
    load_manifest,
    load_prices,
    load_risk_free,
    write_manifest,
    write_prices,
)

from .support import write_prices_reference

MANIFEST_HEADER = "name,a_code,n_code,industry,market_cap_usd,us_listing_date,local_listing_date,price_file"

# the ten-firm reference manifest (caps in USD)
REFERENCE_ROWS = [
    ("Sinopec Shanghai Petrochemical Co. Ltd.", "600688", "SHI", "Oil & Gas Producers", 5.35e9),
    ("Guangshen Railway", "601333", "GSH", "Travel & Leisure", 4.31e9),
    ("China Petroleum & Chemical", "600028", "SNP", "Oil & Gas Producers", 104.76e9),
    ("Huaneng Power International", "600011", "HNP", "Electricity", 18.13e9),
    ("China Southern Airlines Co. Ltd", "600029", "ZHN", "Travel & Leisure", 9.03e9),
    ("China Life Insurance", "601628", "LFC", "Life Insurance", 141.79e9),
    ("China Eastern Airlines Co. Ltd", "600115", "CEA", "Travel & Leisure", 11.61e9),
    ("Aluminum Corp. of China Ltd", "601600", "ACH", "Factory", 8.68e9),
    ("Petro China", "601857", "PTR", "Oil & Gas Producers", 240.43e9),
    ("China Unicom", "600050", "CHU", "Mobile Telecom", 36.119e9),
]


def write_reference_manifest(path):
    lines = [MANIFEST_HEADER]
    for i, (name, a_code, n_code, industry, cap) in enumerate(REFERENCE_ROWS):
        lines.append(
            f"{name},{a_code},{n_code},{industry},{cap!r},2007-0{1 + i % 9}-15,1997-03-0{1 + i % 9},"
            f"prices_{n_code}.csv"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def weekday_dates(start: date, n: int) -> list[date]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


class TestLoadManifest:
    def test_reference_manifest(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_reference_manifest(path)
        records = load_manifest(path)
        assert len(records) == 10
        ptr = next(r for r in records if r.n_code == "PTR")
        assert ptr.market_cap_usd == pytest.approx(240.43e9, rel=1e-12)
        assert ptr.a_code == "601857"

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(MANIFEST_HEADER + "\n", encoding="utf-8")
        assert load_manifest(path) == []

    def test_zero_market_cap(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            MANIFEST_HEADER + "\nFirm,600001,AAA,Energy,0,2007-01-15,1997-01-15,p.csv\n",
            encoding="utf-8",
        )
        with pytest.raises(NonPositiveMarketCap, match="row 1"):
            load_manifest(path)

    def test_missing_field_names_row(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            MANIFEST_HEADER
            + "\nFirm,600001,AAA,Energy,1e9,2007-01-15,1997-01-15,p.csv"
            + "\nFirm2,600002,BBB,Energy,1e9,2007-01-15,1997-01-15\n",
            encoding="utf-8",
        )
        with pytest.raises(MissingField, match="row 2"):
            load_manifest(path)

    def test_duplicate_code(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            MANIFEST_HEADER
            + "\nFirm,600001,AAA,Energy,1e9,2007-01-15,1997-01-15,p.csv"
            + "\nFirm2,600001,BBB,Energy,1e9,2007-01-15,1997-01-15,q.csv\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateCode, match="row 2"):
            load_manifest(path)

    def test_unparsable_date(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            MANIFEST_HEADER + "\nFirm,600001,AAA,Energy,1e9,15.01.2007,1997-01-15,p.csv\n",
            encoding="utf-8",
        )
        with pytest.raises(UnparsableDate, match="row 1"):
            load_manifest(path)

    @pytest.mark.parametrize("text", ["20070115", "2007-W03-1"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, text):
        # Python 3.11+ date.fromisoformat parses both forms, 3.10 neither
        path = tmp_path / "manifest.csv"
        path.write_text(
            MANIFEST_HEADER
            + "\nFirm,600001,AAA,Energy,1e9,2007-01-15,1997-01-15,p.csv"
            + f"\nFirm2,600002,BBB,Energy,1e9,{text},1997-01-15,q.csv\n",
            encoding="utf-8",
        )
        with pytest.raises(UnparsableDate, match="row 2"):
            load_manifest(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("name,code\nX,1\n", encoding="utf-8")
        with pytest.raises(MissingField, match="schema"):
            load_manifest(path)

    def test_nan_market_cap(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            MANIFEST_HEADER
            + "\nFirm,600001,AAA,Energy,1e9,2007-01-15,1997-01-15,p.csv"
            + "\nFirm2,600002,BBB,Energy,nan,2007-01-15,1997-01-15,q.csv\n",
            encoding="utf-8",
        )
        with pytest.raises(MissingField, match="row 2: market_cap_usd 'nan' is not a finite"):
            load_manifest(path)

    @pytest.mark.parametrize("cap", ["1_5e9", "\u0661\u0662e9"])
    def test_market_cap_with_digit_separator_or_non_ascii_digits(self, tmp_path, cap):
        path = tmp_path / "manifest.csv"
        path.write_text(
            MANIFEST_HEADER + f"\nFirm,600001,AAA,Energy,{cap},2007-01-15,1997-01-15,p.csv\n",
            encoding="utf-8",
        )
        with pytest.raises(MissingField, match=f"row 1: market_cap_usd {cap!r} is not a number"):
            load_manifest(path)

    def test_byte_order_mark_loads_as_without(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_reference_manifest(path)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_manifest(marked) == load_manifest(path)


class TestWriteManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_reference_manifest(path)
        records = load_manifest(path)
        records.append(InstrumentRecord(
            'Quoted "A", and B', "600999", "QAB", "Banks, regional", 0.1 + 0.2,
            date(9999, 12, 31), date(1, 1, 1), "dir with, comma/p.csv",
        ))
        write_manifest(records, path)
        assert load_manifest(path) == records
        assert path.read_text(encoding="utf-8").splitlines()[0] == MANIFEST_HEADER


class TestLoadPrices:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2007-01-08,100.0\n2007-01-09,101.5\n", encoding="utf-8")
        series = load_prices(path)
        assert len(series) == 2
        assert series.instrument_id == "p"
        assert series.closes.tolist() == [100.0, 101.5]

    def test_decimal_comma_normalized(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('date,close\n2007-01-08,"100,25"\n2007-01-09,101.5\n', encoding="utf-8")
        series = load_prices(path)
        assert series.closes[0] == pytest.approx(100.25)

    def test_negative_close(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2007-01-08,-3\n", encoding="utf-8")
        with pytest.raises(NonPositivePrice, match="row 1"):
            load_prices(path)

    def test_duplicate_date(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2007-01-08,1\n2007-01-08,2\n", encoding="utf-8")
        with pytest.raises(DuplicateDate, match="row 2"):
            load_prices(path)

    def test_unsorted_input(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2007-01-09,1\n2007-01-08,2\n", encoding="utf-8")
        with pytest.raises(UnsortedInputAfterParse, match="row 2"):
            load_prices(path)

    def test_large_generated_file_round_trips(self, tmp_path):
        # generator writes the file; the loader must reproduce it row for row
        rng = np.random.default_rng(7)
        n = 2520
        dates = weekday_dates(date(2005, 1, 3), n)
        closes = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
        series = PriceSeries("big", tuple(dates), closes)
        path = tmp_path / "big.csv"
        write_prices(series, path)
        loaded = load_prices(path)
        assert len(loaded) == n
        assert loaded.dates[0] == min(dates)
        assert loaded.dates.tolist() == series.dates.tolist()
        assert loaded.closes.tolist() == series.closes.tolist()  # exact round trip


    @pytest.mark.parametrize("loader", [load_prices, load_fx, load_risk_free])
    @pytest.mark.parametrize("text", ["20070109", "2007-W02-2"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, loader, text):
        # Python 3.11+ date.fromisoformat parses both forms, 3.10 neither
        path = tmp_path / "p.csv"
        column = {load_prices: "close", load_fx: "rate", load_risk_free: "annual_yield_pct"}[loader]
        path.write_text(f"date,{column}\n2007-01-08,1.5\n{text},1.5\n", encoding="utf-8")
        with pytest.raises(UnparsableDate, match=f"row 2: '{text}' is not an ISO-8601 date"):
            loader(path)

    def test_writer_format(self, tmp_path):
        # edge closes: subnormal, tiny, inexact decimal, 17 digits, repr switching to exponent
        closes = [5e-324, 1e-300, 0.1, 1e16, 123456789.123]
        dates = tuple(weekday_dates(date(2007, 1, 8), len(closes)))
        series = PriceSeries("edge", dates, np.array(closes))
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["date", "close"])
        writer.writerows([d.isoformat(), repr(c)] for d, c in zip(dates, closes))
        path = tmp_path / "edge.csv"
        write_prices(series, path)
        assert path.read_bytes() == reference.getvalue().encode("utf-8")
        loaded = load_prices(path)
        assert loaded.dates.tolist() == list(dates)
        assert loaded.closes.tolist() == closes

    def test_nan_close_names_first_bad_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,close\n2007-01-08,1\n2007-01-09,nan\n2007-01-10,inf\n", encoding="utf-8"
        )
        with pytest.raises(MissingField, match="row 2: close 'nan' is not a finite number"):
            load_prices(path)

    def test_oversized_field_names_the_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('date,close\n2007-01-08,"' + "1" * 200_000 + '"\n', encoding="utf-8")
        with pytest.raises(MissingField, match="p.csv: malformed CSV"):
            load_prices(path)

    @pytest.mark.parametrize(
        "body, want",
        [
            # numpy parses year 0, date.fromisoformat does not
            ("0000-12-31,1.5\n2006-01-03,1.5\n", UnparsableDate),
            ("2006-02-30,1.5\n", UnparsableDate),
            # csv.reader ends a row at a lone CR: the close is a row of its own
            ("2006-01-03,\r1.5\n", MissingField),
            # a flat split of the body pairs these cells up again
            ("2006-01-03\n1.5,2006-01-04,2.5\n", MissingField),
            # str.strip drops the separator, float does not
            ("2006-01-03,\x1c1.5\n", None),
            # past csv's field size limit
            ("2006-01-03," + "0" * 200_000 + "1.5\n", MissingField),
            # csv.reader ends the last row at a lone CR as at an LF
            ("2006-01-03,1.5\r", None),
            # csv.reader keeps a quote inside an unquoted cell
            ('2006-01-03,1.5"\n', MissingField),
            # an Arabic-Indic digit: both checks take ASCII digits only
            ("2006-01-0\u0663,1.5\n", UnparsableDate),
            # numpy reads this as the year 206
            ("+206-01-03,1.5\n", UnparsableDate),
            # a 10-character line, a date with no comma
            ("2006-01-03\n", MissingField),
            # three cells, where every other cell of a flat split leaves the third unread
            ("2006-01-03,1.5,2\n", MissingField),
            # six bytes, four characters: float drops the ideographic space
            ("2006-01-03,1.5\u3000\n", None),
            # float reads 15.0 and 12.0; a numeric cell is ASCII with no digit separator
            ("2006-01-03,1_5\n", MissingField),
            ("2006-01-03,\u0661\u0662\n", MissingField),
        ],
        ids=[
            "year-0000", "feb-30", "lone-cr", "comma-moved", "separator-pad", "long-cell",
            "last-byte-cr", "quote-in-cell", "non-ascii-digit", "signed-year", "no-comma", "two-commas",
            "multibyte-cell", "underscore-close", "arabic-indic-close",
        ],
    )
    def test_text_check_traps_match_row_checks(self, tmp_path, body, want):
        # each trap goes through load_prices and must end as the per-row checks do
        path = tmp_path / "p.csv"
        path.write_text("date,close\n" + body, encoding="utf-8", newline="")

        def outcome(load):
            try:
                dates, closes = load()
            except CrosslistError as exc:
                return type(exc), str(exc)
            return dates.tolist(), closes.tolist()

        by_row = outcome(
            lambda: _check_rows(path, PRICE_COLUMNS, _read_rows(path, PRICE_COLUMNS), require_positive=True)
        )
        if want:
            assert by_row[0] is want
        else:
            assert by_row == ([date(2006, 1, 3)], [1.5])

        def load():
            series = load_prices(path)
            return series.dates, series.closes

        assert outcome(load) == by_row

    def test_written_files_load_without_row_checks(self, tmp_path, monkeypatch):
        # the text check must take what write_prices writes, and its CRLF copy;
        # a file it declines still loads, per row, only slower
        calls = []
        monkeypatch.setattr(
            market_data, "_check_rows", lambda *args, **kwargs: calls.append(args) or _check_rows(*args, **kwargs)
        )
        rng = np.random.default_rng(3)
        dates = tuple(weekday_dates(date(2005, 1, 3), 500))
        series = PriceSeries("lf", dates, 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(500))))
        write_prices(series, tmp_path / "lf.csv")
        (tmp_path / "crlf.csv").write_bytes((tmp_path / "lf.csv").read_bytes().replace(b"\n", b"\r\n"))
        for name in ("lf", "crlf"):
            loaded = load_prices(tmp_path / f"{name}.csv")
            assert loaded.dates.tolist() == list(dates) and loaded.closes.tolist() == series.closes.tolist()
        assert calls == []

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,close\n2007-01-08,1\n2007-01-09,\xff2\n")
        with pytest.raises(UndecodableFile, match="p.csv"):
            load_prices(path)

    def test_byte_order_mark_loads_as_without(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_prices(PriceSeries("p", weekday_dates(date(2007, 1, 8), 30), np.arange(1.0, 31.0)), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        original, copy = load_prices(plain), load_prices(marked)
        assert (copy.dates.tolist(), copy.closes.tolist()) == (original.dates.tolist(), original.closes.tolist())


class TestWritePrices:
    def written(self, tmp_path, series, name="p.csv"):
        path = tmp_path / name
        write_prices(series, path)
        return path.read_bytes()

    def test_round_trip_equal_element_for_element(self, tmp_path):
        rng = np.random.default_rng(17)
        dates = np.sort(rng.choice(np.arange("1999-01-01", "2019-01-01", dtype="datetime64[D]"), 500, replace=False))
        series = PriceSeries("rt", dates, np.exp(rng.normal(0.0, 3.0, 500)))
        write_prices(series, tmp_path / "rt.csv")
        loaded = load_prices(tmp_path / "rt.csv")
        assert np.array_equal(loaded.dates, series.dates)
        assert np.array_equal(loaded.closes, series.closes)

    # the writer formats a date column once and reuses it while the dates'
    # bytes stay the same; no file may carry another series' dates
    def test_same_length_different_dates_alternately(self, tmp_path):
        days = weekday_dates(date(2006, 1, 2), 41)
        a = PriceSeries("a", tuple(days[:40]), np.linspace(1.0, 2.0, 40))
        b = PriceSeries("b", tuple(days[:20] + days[21:]), np.linspace(1.0, 2.0, 40))
        for k, series in enumerate([a, b, a, b, b, a]):
            assert self.written(tmp_path, series, f"{k}.csv") == write_prices_reference(series)

    def test_dates_changed_in_place(self, tmp_path):
        # the series' dates are a read-only view of the caller's array, which the caller may still change
        days = np.array(weekday_dates(date(2006, 1, 2), 30), dtype="datetime64[D]")
        series = PriceSeries("m", days, np.full(30, 3.5))
        assert self.written(tmp_path, series) == write_prices_reference(series)
        days[-1] += np.timedelta64(7, "D")
        assert self.written(tmp_path, series) == write_prices_reference(series)

    def test_empty_series(self, tmp_path):
        full = PriceSeries("f", tuple(weekday_dates(date(2006, 1, 2), 5)), np.ones(5))
        empty = PriceSeries("e", np.empty(0, dtype="datetime64[D]"), np.empty(0))
        for series in (full, empty, full, empty):
            assert self.written(tmp_path, series) == write_prices_reference(series)
        assert self.written(tmp_path, empty) == b"date,close\n"

    def test_long_column_then_short(self, tmp_path):
        dates = tuple(weekday_dates(date(2006, 1, 2), 5000))
        long = PriceSeries("l", dates, np.full(5000, 2.25))
        short = PriceSeries("s", dates[:3], np.full(3, 2.25))
        tail = PriceSeries("t", dates[-3:], np.full(3, 2.25))
        for series in (long, short, long, tail):
            assert self.written(tmp_path, series) == write_prices_reference(series)


class TestRateLoaders:
    def test_fx(self, tmp_path):
        path = tmp_path / "fx.csv"
        path.write_text("date,rate\n2007-01-08,0.128\n2007-01-09,0.129\n", encoding="utf-8")
        fx = load_fx(path)
        assert fx.values[fx.dates.tolist().index(date(2007, 1, 9))] == pytest.approx(0.129)

    def test_risk_free_allows_negative(self, tmp_path):
        path = tmp_path / "rf.csv"
        path.write_text("date,annual_yield_pct\n2007-01-08,-0.2\n", encoding="utf-8")
        assert load_risk_free(path).values[0] == pytest.approx(-0.2)

    def test_inf_fx_rate(self, tmp_path):
        path = tmp_path / "fx.csv"
        path.write_text("date,rate\n2007-01-08,0.128\n2007-01-09,inf\n", encoding="utf-8")
        with pytest.raises(MissingField, match="row 2: rate 'inf' is not a finite number"):
            load_fx(path)

    def test_nan_risk_free_yield(self, tmp_path):
        path = tmp_path / "rf.csv"
        path.write_text("date,annual_yield_pct\n2007-01-08,NaN\n", encoding="utf-8")
        with pytest.raises(MissingField, match="row 1: annual_yield_pct 'NaN' is not a finite"):
            load_risk_free(path)

    def test_convert_to_usd(self, tmp_path):
        dates = weekday_dates(date(2007, 1, 8), 3)
        series = PriceSeries("x", tuple(dates), np.array([10.0, 20.0, 30.0]))
        fx_path = tmp_path / "fx.csv"
        fx_path.write_text(
            "date,rate\n"
            + "\n".join(f"{d.isoformat()},0.5" for d in dates[:2])
            + "\n",
            encoding="utf-8",
        )
        converted = convert_to_usd(series, load_fx(fx_path))
        assert converted.closes.tolist() == [5.0, 10.0]
        assert len(converted.dates) == 2

    def test_convert_to_usd_rejects_unsorted_fx(self):
        # an unsorted FX series cannot be built, so `convert_to_usd` never sees one
        dates = tuple(weekday_dates(date(2007, 1, 8), 3))
        with pytest.raises(InvalidSeries, match="dates must be strictly increasing"):
            RateSeries(dates=dates[::-1], values=np.array([0.5, 0.25, 0.125]))


class TestAlign:
    def test_identical_dates(self):
        dates = tuple(weekday_dates(date(2007, 1, 8), 5))
        a = PriceSeries("a", dates, np.arange(1.0, 6.0))
        b = PriceSeries("b", dates, np.arange(2.0, 7.0))
        panel = align([a, b])
        assert panel.common_dates.tolist() == list(dates)
        assert panel.closes[1].tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_holiday_mismatch(self):
        # oracle: alignment must equal the set intersection of the calendars
        rng = np.random.default_rng(3)
        dates_a = weekday_dates(date(2006, 1, 2), 250)
        holidays = sorted(rng.choice(250, size=10, replace=False).tolist())
        dates_b = [d for i, d in enumerate(dates_a) if i not in holidays]
        a = PriceSeries("a", tuple(dates_a), np.full(250, 3.0))
        b = PriceSeries("b", tuple(dates_b), np.full(240, 4.0))
        panel = align([a, b])
        assert len(panel.common_dates) == 240
        assert set(panel.common_dates.tolist()) == set(dates_a) & set(dates_b)

    def test_no_series(self):
        with pytest.raises(ValueError, match="align requires at least one series"):
            align([])

    def test_disjoint_ranges(self):
        a = PriceSeries("a", tuple(weekday_dates(date(2006, 1, 2), 5)), np.ones(5))
        b = PriceSeries("b", tuple(weekday_dates(date(2007, 1, 2), 5)), np.ones(5))
        with pytest.raises(EmptyIntersection):
            align([a, b])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        dates_a = weekday_dates(date(2006, 1, 2), 60)
        dates_b = dates_a[5:]
        a = PriceSeries("a", tuple(dates_a), rng.uniform(1, 2, 60))
        b = PriceSeries("b", tuple(dates_b), rng.uniform(1, 2, 55))
        once = align([a, b])
        twice = align(
            [PriceSeries(s.instrument_id, once.common_dates, v) for s, v in zip((a, b), once.closes)]
        )
        assert twice.common_dates.tolist() == once.common_dates.tolist()
        for t, o in zip(twice.closes, once.closes, strict=True):
            assert t.tolist() == o.tolist()

    def test_same_ids_align_by_position(self):
        # two index files named index.csv load with one id; closes follow input order
        dates = tuple(weekday_dates(date(2006, 1, 2), 6))
        a = PriceSeries("index", dates, np.arange(1.0, 7.0))
        b = PriceSeries("index", dates[1:], np.arange(11.0, 16.0))
        panel = align([a, b, a])
        assert panel.common_dates.tolist() == list(dates[1:])
        assert [c.tolist() for c in panel.closes] == [
            [2.0, 3.0, 4.0, 5.0, 6.0],
            [11.0, 12.0, 13.0, 14.0, 15.0],
            [2.0, 3.0, 4.0, 5.0, 6.0],
        ]


class TestEventFrame:
    def _panel(self, n, start=date(2006, 1, 2)):
        dates = weekday_dates(start, n)
        series = PriceSeries("x", tuple(dates), np.ones(n))
        return align([series]), dates

    def test_event_on_panel_date(self):
        # day 0 is the event's position, so the panel's days count -49..50 in panel order
        panel, dates = self._panel(100)
        day0 = build_event_frame(panel, dates[49])
        assert type(day0) is int and day0 == 49
        assert build_event_frame(panel, dates[0]) == 0
        assert build_event_frame(panel, dates[-1]) == 99

    def test_weekend_event_rolls_forward(self):
        panel, dates = self._panel(20)
        saturday = date(2006, 1, 14)
        assert saturday.weekday() == 5
        day0 = build_event_frame(panel, saturday)
        assert panel.common_dates.tolist()[day0] == date(2006, 1, 16)

    def test_211_day_panel_covers_symmetric_window(self):
        panel, dates = self._panel(211)
        day0 = build_event_frame(panel, dates[105])
        assert (-day0, len(panel.common_dates) - 1 - day0) == (-105, 105)

    def test_event_after_panel_end(self):
        panel, dates = self._panel(10)
        with pytest.raises(EventAfterPanelEnd):
            build_event_frame(panel, dates[-1] + timedelta(days=10))

    def test_event_after_panel_end_message(self):
        # numpy formats both dates, as `date.isoformat` does, below the year 1000 too
        panel = align([PriceSeries("x", (date(998, 3, 2), date(999, 12, 31)), np.ones(2))])
        with pytest.raises(EventAfterPanelEnd) as caught:
            build_event_frame(panel, date(1000, 1, 3))
        assert str(caught.value) == "event date 1000-01-03 is after the last panel date 0999-12-31"

    def test_offsets_are_consecutive(self):
        # event time is position minus day 0: a 37-day panel counts -11..25 with one day 0
        panel, dates = self._panel(37)
        day0 = build_event_frame(panel, dates[11])
        offsets = [i - day0 for i in range(len(panel.common_dates))]
        assert offsets == list(range(-11, 26))
        assert sum(1 for v in offsets if v == 0) == 1
        assert panel.common_dates.tolist()[day0] == dates[11]


class TestPriceSeriesInvariants:
    def test_non_increasing_dates_rejected(self):
        d = weekday_dates(date(2006, 1, 2), 3)
        with pytest.raises(ValueError):
            PriceSeries("x", (d[0], d[2], d[1]), np.ones(3))

    @pytest.mark.parametrize(
        "day", [np.datetime64("0001-01-01") - 1, np.datetime64("9999-12-31") + 1, np.datetime64("NaT")],
        ids=["year-0", "year-10000", "nat"],
    )
    def test_dates_a_date_cannot_hold_rejected(self, day):
        # `.tolist()` of a series' dates gives `date`s, and the writer's dates load again
        with pytest.raises(ValueError):
            PriceSeries("x", np.array([day], dtype="datetime64[D]"), np.ones(1))
        with pytest.raises(ValueError):
            PriceSeries("x", np.array([np.datetime64("2006-01-02"), day], dtype="datetime64[D]"), np.ones(2))

    def test_nonpositive_close_rejected(self):
        d = tuple(weekday_dates(date(2006, 1, 2), 2))
        with pytest.raises(NonPositivePrice):
            PriceSeries("x", d, np.array([1.0, 0.0]))


_DAYS = np.array(weekday_dates(date(2006, 1, 2), 4), dtype="datetime64[D]")


def _one_of_each(days=_DAYS, values=(1.0, 2.0, 3.0, 4.0), instrument_id="x"):
    """A series of each of the three dated types, built from fresh copies of `days` and `values`."""
    days, values = np.array(days, dtype="datetime64[D]"), np.array(values, dtype=float)
    return [
        PriceSeries(instrument_id, days.copy(), values.copy()),
        RateSeries(days.copy(), values.copy()),
        AlignedPanel(days.copy(), (values.copy(), 2.0 * values)),
    ]


class TestSeriesContract:
    """One contract for `PriceSeries`, `RateSeries` and `AlignedPanel`."""

    @pytest.mark.parametrize(
        "dates, values, message",
        [
            (_DAYS[[0, 2, 1, 3]], np.ones(4), "dates must be strictly increasing"),
            (_DAYS[[0, 1, 1, 2]], np.ones(4), "dates must be strictly increasing"),
            (np.append(_DAYS[:3], np.datetime64("NaT")), np.ones(4), "dates must be strictly increasing"),
            (np.array(["NaT"], dtype="datetime64[D]"), np.ones(1), "dates must lie in years 1 to 9999"),
            (
                np.array(["2006-01-02", "10000-01-01"], dtype="datetime64[D]"),
                np.ones(2),
                "dates must lie in years 1 to 9999",
            ),
            (_DAYS, np.ones(3), "dates and values must be 1-D arrays of equal length"),
            (_DAYS, np.array([1.0, np.nan, 1.0, 1.0]), "values must be finite"),
            (_DAYS, np.array([1.0, 1.0, np.inf, 1.0]), "values must be finite"),
            (_DAYS, np.ones((4, 1)), "dates and values must be 1-D arrays of equal length"),
        ],
        ids=["unsorted", "repeated", "nat", "lone-nat", "year-10000", "length", "nan", "inf", "2-d"],
    )
    def test_bad_rate_series_raises_at_construction(self, dates, values, message):
        with pytest.raises(InvalidSeries, match=f"^RateSeries: {message}$"):
            RateSeries(dates, values)

    def test_invalid_series_is_an_input_error_and_a_value_error(self):
        assert issubclass(InvalidSeries, CrosslistError) and issubclass(InvalidSeries, ValueError)

    def test_rate_values_as_a_list_are_converted(self):
        rates = RateSeries(_DAYS.tolist(), [0.5, -0.25, 1, 2])
        assert rates.values.dtype == np.float64 and rates.values.tolist() == [0.5, -0.25, 1.0, 2.0]
        assert len(rates) == 4

    def test_positivity_is_a_rule_of_prices_only(self):
        # checked before the shared rules, so an inf or NaN close is a NonPositivePrice too
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(NonPositivePrice, match="x: closes must be finite and > 0"):
                PriceSeries("x", _DAYS, [1.0, 1.0, bad, 1.0])
        signed = [-1.0, 0.0, 1.0, 2.0]
        assert RateSeries(_DAYS, signed).values.tolist() == signed

    def test_write_prices_round_trip_is_equal(self, tmp_path):
        rng = np.random.default_rng(5)
        series = PriceSeries("rt", _DAYS, np.exp(rng.normal(0.0, 3.0, 4)))
        write_prices(series, tmp_path / "rt.csv")
        assert load_prices(tmp_path / "rt.csv") == series

    def test_distinct_equal_objects_are_equal(self):
        for a, b in zip(_one_of_each(), _one_of_each(), strict=True):
            assert a is not b and a == b and not a != b
            assert len(a) == len(b) == 4

    def test_a_changed_field_is_unequal(self):
        series = _one_of_each()
        later, other = _one_of_each(days=_DAYS + np.timedelta64(1, "D")), _one_of_each(values=(1.0, 2.0, 3.0, 5.0))
        for changed in (later, other):
            for a, b in zip(series, changed, strict=True):
                assert a != b and not a == b
        price, _, _ = _one_of_each(instrument_id="y")
        assert price != series[0]

    def test_other_types_are_unequal(self):
        series = _one_of_each()
        for i, a in enumerate(series):
            for j, b in enumerate(series):
                assert (a == b) == (i == j)
        assert series[0] != (series[0].instrument_id, series[0].dates, series[0].closes)
        assert AlignedPanel(_DAYS, (np.ones(4),)) != AlignedPanel(_DAYS, (np.ones(4), np.ones(4)))

    def test_not_hashable(self):
        for series in _one_of_each():
            with pytest.raises(TypeError):
                hash(series)

    def test_arrays_are_read_only_views_of_the_callers(self):
        closes = np.ones(4)
        p = PriceSeries("x", _DAYS, closes)
        with pytest.raises(ValueError):
            p.closes[0] = -5.0
        closes[0] = 2.0  # the caller's own array stays writable, and the series shares it
        assert p.closes[0] == 2.0 and np.shares_memory(p.closes, closes)
        price, rate, panel = _one_of_each()
        arrays = [price.dates, price.closes, rate.dates, rate.values, panel.common_dates]
        assert not any(a.flags.writeable for a in arrays + list(panel.closes))

    def test_replace_checks_again(self):
        price, rate, panel = _one_of_each()
        with pytest.raises(NonPositivePrice):
            dataclasses.replace(price, closes=-price.closes)
        with pytest.raises(InvalidSeries, match="RateSeries: values must be finite"):
            dataclasses.replace(rate, values=np.full(4, np.nan))
        with pytest.raises(InvalidSeries, match="x: dates must be strictly increasing"):
            dataclasses.replace(price, dates=price.dates[::-1])
        with pytest.raises(InvalidSeries, match="AlignedPanel: dates and values must be 1-D arrays of equal"):
            dataclasses.replace(panel, closes=(*panel.closes, np.ones(3)))


class TestDayNumbers:
    """A series' dates are one `datetime64[D]` array, numpy's day numbers, however it is built.

    Each test checks them against the dates the series was given, or its file's.
    """

    @staticmethod
    def assert_dates(dates, want):
        assert isinstance(dates, np.ndarray) and dates.dtype == np.dtype("datetime64[D]")
        assert dates.tolist() == list(want)

    @pytest.mark.parametrize(
        "loader, column", [(load_prices, "close"), (load_fx, "rate"), (load_risk_free, "annual_yield_pct")]
    )
    @pytest.mark.parametrize("quoted", [False, True], ids=["text", "per-row"])
    def test_loaders(self, tmp_path, monkeypatch, loader, column, quoted):
        per_row = []
        monkeypatch.setattr(
            market_data, "_check_rows", lambda *args, **kwargs: per_row.append(1) or _check_rows(*args, **kwargs)
        )
        dates = weekday_dates(date(2006, 12, 27), 6)  # across a year end
        cell = '"{}"' if quoted else "{}"  # csv.reader reads a quoted cell; the text check declines it
        path = tmp_path / "series.csv"
        path.write_text(
            f"date,{column}\n" + "".join(f"{d.isoformat()},{cell.format(1.5 + i)}\n" for i, d in enumerate(dates)),
            encoding="utf-8",
        )
        series = loader(path)
        assert bool(per_row) == quoted
        self.assert_dates(series.dates, dates)

    def test_convert_and_replace(self, tmp_path):
        dates = weekday_dates(date(2007, 1, 8), 8)
        path = tmp_path / "p.csv"
        rows = "".join(f"{d.isoformat()},{i + 1}\n" for i, d in enumerate(dates))
        path.write_text("date,close\n" + rows, encoding="utf-8")
        series = load_prices(path)
        fx = RateSeries(dates=tuple(dates[1::2]), values=np.full(4, 0.5))
        self.assert_dates(fx.dates, dates[1::2])
        usd = convert_to_usd(series, fx)
        self.assert_dates(usd.dates, dates[1::2])
        for source in (series, usd):
            moved = dataclasses.replace(source, dates=tuple(source.dates.tolist()[1:]), closes=source.closes[1:])
            self.assert_dates(moved.dates, source.dates.tolist()[1:])

    def test_align(self, tmp_path):
        dates = weekday_dates(date(2007, 1, 8), 8)
        path = tmp_path / "p.csv"
        path.write_text("date,close\n" + "".join(f"{d.isoformat()},1.5\n" for d in dates), encoding="utf-8")
        other = PriceSeries("other", tuple(dates[1::2]), np.ones(4))
        self.assert_dates(align([load_prices(path), other]).common_dates, dates[1::2])

    def test_tuple_of_dates(self):
        dates = (date(999, 12, 30), date(999, 12, 31), date(1000, 1, 1))
        self.assert_dates(PriceSeries("x", dates, np.ones(3)).dates, dates)
        self.assert_dates(RateSeries(dates, np.ones(3)).dates, dates)

    def test_generate_bundle(self, tmp_path, monkeypatch):
        written = []
        write = market_data.write_prices
        monkeypatch.setattr(
            market_data, "write_prices", lambda series, path: written.append((series, path)) or write(series, path)
        )
        generate_bundle(tmp_path, n_firms=3, n_days=300, effect=0.0, seed=41)
        assert len(written) == 5
        for series, path in written:
            self.assert_dates(series.dates, load_prices(path).dates.tolist())
