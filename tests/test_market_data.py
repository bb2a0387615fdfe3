"""Manifest/price ingestion, alignment, and event-frame construction."""

import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest

from crosslist import market_data
from crosslist.errors import (
    CrosslistError,
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
from crosslist.market_data import (
    PRICE_COLUMNS,
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
    write_prices,
)

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
        assert loaded.dates == series.dates
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
        assert loaded.dates == dates
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
        ],
        ids=["year-0000", "feb-30", "lone-cr", "comma-moved", "separator-pad", "long-cell"],
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
            return dates, closes.tolist()

        by_row = outcome(
            lambda: _check_rows(path, PRICE_COLUMNS, _read_rows(path, PRICE_COLUMNS), require_positive=True)
        )
        if want:
            assert by_row[0] is want
        else:
            assert by_row == ((date(2006, 1, 3),), [1.5])

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
            assert loaded.dates == dates and loaded.closes.tolist() == series.closes.tolist()
        assert calls == []

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,close\n2007-01-08,1\n2007-01-09,\xff2\n")
        with pytest.raises(UndecodableFile, match="p.csv"):
            load_prices(path)


class TestRateLoaders:
    def test_fx(self, tmp_path):
        path = tmp_path / "fx.csv"
        path.write_text("date,rate\n2007-01-08,0.128\n2007-01-09,0.129\n", encoding="utf-8")
        fx = load_fx(path)
        assert fx.values[fx.dates.index(date(2007, 1, 9))] == pytest.approx(0.129)

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
        dates = tuple(weekday_dates(date(2007, 1, 8), 3))
        series = PriceSeries("x", dates, np.array([10.0, 20.0, 30.0]))
        fx = RateSeries(dates=dates[::-1], values=np.array([0.5, 0.25, 0.125]))
        with pytest.raises(ValueError, match="FX dates must be strictly increasing"):
            convert_to_usd(series, fx)


class TestAlign:
    def test_identical_dates(self):
        dates = tuple(weekday_dates(date(2007, 1, 8), 5))
        a = PriceSeries("a", dates, np.arange(1.0, 6.0))
        b = PriceSeries("b", dates, np.arange(2.0, 7.0))
        panel = align([a, b])
        assert panel.common_dates == dates
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
        assert set(panel.common_dates) == set(dates_a) & set(dates_b)

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
        assert twice.common_dates == once.common_dates
        for t, o in zip(twice.closes, once.closes, strict=True):
            assert t.tolist() == o.tolist()

    def test_same_ids_align_by_position(self):
        # two index files named index.csv load with one id; closes follow input order
        dates = tuple(weekday_dates(date(2006, 1, 2), 6))
        a = PriceSeries("index", dates, np.arange(1.0, 7.0))
        b = PriceSeries("index", dates[1:], np.arange(11.0, 16.0))
        panel = align([a, b, a])
        assert panel.common_dates == dates[1:]
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
        panel, dates = self._panel(100)
        offsets = build_event_frame(panel, dates[49])
        assert offsets.dtype == np.int64 and offsets.shape == (100,)
        assert offsets[49] == 0
        assert offsets[48] == -1
        assert offsets[50] == 1

    def test_weekend_event_rolls_forward(self):
        panel, dates = self._panel(20)
        saturday = date(2006, 1, 14)
        assert saturday.weekday() == 5
        offsets = build_event_frame(panel, saturday)
        assert offsets[panel.common_dates.index(date(2006, 1, 16))] == 0

    def test_211_day_panel_covers_symmetric_window(self):
        panel, dates = self._panel(211)
        offsets = build_event_frame(panel, dates[105])
        assert sorted(offsets.tolist()) == list(range(-105, 106))

    def test_event_after_panel_end(self):
        panel, dates = self._panel(10)
        with pytest.raises(EventAfterPanelEnd):
            build_event_frame(panel, dates[-1] + timedelta(days=10))

    def test_offsets_are_consecutive(self):
        panel, dates = self._panel(37)
        offsets = build_event_frame(panel, dates[11]).tolist()
        assert offsets == list(range(-11, 26))
        assert sum(1 for v in offsets if v == 0) == 1


class TestPriceSeriesInvariants:
    def test_non_increasing_dates_rejected(self):
        d = weekday_dates(date(2006, 1, 2), 3)
        with pytest.raises(ValueError):
            PriceSeries("x", (d[0], d[2], d[1]), np.ones(3))

    def test_nonpositive_close_rejected(self):
        d = tuple(weekday_dates(date(2006, 1, 2), 2))
        with pytest.raises(NonPositivePrice):
            PriceSeries("x", d, np.array([1.0, 0.0]))
