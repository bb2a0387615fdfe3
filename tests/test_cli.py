"""CLI commands: validate, capm, event-study, simulate, and their exit codes."""

import csv
import hashlib
import json
import math
import os
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from crosslist.cli import generate_bundle, load_config, main
from crosslist.errors import ConfigError
from crosslist.event_study import EventWindows, OffsetRange, run_event_study, study_firm, write_event_reports
from crosslist.garch import MAX_SIM_DAYS, GarchSpec, fit_garch_market_model, simulate_bundle
from crosslist.linear_models import diagnostics_report, ols_fit
from crosslist.market_data import (
    MANIFEST_COLUMNS,
    PriceSeries,
    align,
    build_event_frame,
    load_manifest,
    load_prices,
    write_prices,
)

from .support import fresh_python
from .test_market_data import weekday_dates


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def file_hashes(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def bundle_firm_inputs(bundle: Path, rec):
    """A generated bundle firm's (returns, local index, US index, day-0 position), rebuilt through the library."""
    prices = load_prices(bundle / rec.price_file)
    panel = align([prices, load_prices(bundle / "sse.csv"), load_prices(bundle / "nyse.csv")])
    day0 = build_event_frame(panel, rec.us_listing_date) - 1  # returns start at the second date
    returns, loc, us = (np.diff(np.log(v)) for v in panel.closes)
    return returns, loc, us, day0


def write_price_csv(path: Path, closes, start=date(2006, 1, 2)):
    closes = np.asarray(closes, dtype=float)
    dates = tuple(weekday_dates(start, closes.shape[0]))
    write_prices(PriceSeries(path.stem, dates, closes), path)
    return dates


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--out", str(out_a), "--seed", "42"]) == 0
        assert main(["simulate", "--out", str(out_b), "--seed", "42"]) == 0
        assert file_hashes(out_a) == file_hashes(out_b)

    def test_different_seed_differs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["simulate", "--out", str(out_a), "--seed", "1"])
        main(["simulate", "--out", str(out_b), "--seed", "2"])
        assert file_hashes(out_a) != file_hashes(out_b)

    def test_file_count(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["simulate", "--out", str(out), "--seed", "5"]) == 0
        price_files = [p for p in out.iterdir() if p.suffix == ".csv" and p.name != "manifest.csv"]
        assert len(price_files) == 12  # 10 firms + 2 indexes
        assert (out / "manifest.csv").exists()

    def test_generate_bundle_pinned_digests(self, tmp_path):
        # the simulator's and the writer's bytes, pinned across commits; a
        # change that moves any of them must say so and re-pin
        generate_bundle(tmp_path, 3, 300, 0.0, 41)
        assert file_hashes(tmp_path) == {
            "manifest.csv": "455abe7cd8e8a94eea8b929bdeb6eb85e4c00fabdb197627008e5ba0393f8caf",
            "nyse.csv": "dad081c4c10ec2f1c365ecc16f451c64ecb2b900ab76030918787038be6fa61c",
            "prices_F00.csv": "a63558fc48771d9be45d50aedc5d62c8febc4833e827311603ebece39525ce7d",
            "prices_F01.csv": "6a91239508f6ab13ddcd73e4ce6d82db0efb5aa19cff2e48fb40a3093b9387f8",
            "prices_F02.csv": "558c74e525ec7743cf2f6c73eb0c0f729e7836d7f338e8b04a71626aadc0c131",
            "run.ini": "fbd21fe5b3855d8af6f4e490995c9be6514a402f4ec3e9a12fc2895afcb22e10",
            "sse.csv": "0e69a5f1518a03d93ace12ae9d3d878cc23b293f02b35b69fbd60eda857dddd8",
        }

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file, not a directory", encoding="utf-8")
        assert main(["simulate", "--out", str(blocker / "sub"), "--seed", "1"]) == 2


    @pytest.mark.parametrize(
        "setting, message",
        [
            ("firms = -3", "need at least 1 firm, got -3"),
            ("firms = 0", "need at least 1 firm, got 0"),
            ("days = 2", "days must be in [3, 2085535], got 2"),
            (f"days = {MAX_SIM_DAYS + 1}", "days must be in [3, 2085535], got 2085536"),
            ("seed = -1", "seed must be >= 0, got -1"),
            ("effect = nan", "effect must be finite, got nan"),
            ("effect = -inf", "effect must be finite, got -inf"),
        ],
    )
    def test_bad_input_is_config_error(self, tmp_path, capsys, setting, message):
        section = "run" if setting.startswith("seed") else "simulate"
        config = tmp_path / "run.ini"
        config.write_text(f"[{section}]\n{setting}\n", encoding="utf-8")
        out = tmp_path / "bundle"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_closes_out_of_range_are_config_error(self, tmp_path, capsys):
        # a finite effect so large that exp() overflows on the listing day
        config = tmp_path / "run.ini"
        config.write_text("[simulate]\nfirms = 2\ndays = 300\neffect = 1e6\n", encoding="utf-8")
        out = tmp_path / "bundle"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        message = "firm F00's simulated closes leave the floating-point range (effect = 1000000.0, days = 300)"
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (out / "prices_F00.csv").exists() and not (out / "manifest.csv").exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["simulate", "--out", str(out), "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"
        assert not out.exists()

    def test_day_limit_ends_on_the_last_date(self):
        last = np.busday_offset(np.datetime64("2006-01-02"), MAX_SIM_DAYS - 1, roll="forward")
        assert last == np.datetime64("9999-12-31")
        assert MAX_SIM_DAYS == np.busday_count(np.datetime64("2006-01-02"), np.datetime64("10000-01-01"))


class TestSimulateBundle:
    def test_writer_goes_through_write_prices(self, tmp_path, monkeypatch):
        # the benchmark's tracer times the writer by wrapping `market_data.write_prices`
        written = []
        monkeypatch.setattr("crosslist.market_data.write_prices", lambda series, path: written.append(Path(path).name))
        generate_bundle(tmp_path, 3, 300, 0.0, 41)
        assert written == ["sse.csv", "nyse.csv", "prices_F00.csv", "prices_F01.csv", "prices_F02.csv"]

    def test_prices_repeat_and_match_the_written_files(self, tmp_path):
        records, sse, nyse, prices = simulate_bundle(3, 300, 0.0, 41)
        generate_bundle(tmp_path, 3, 300, 0.0, 41)
        assert load_manifest(tmp_path / "manifest.csv") == records
        assert (load_prices(tmp_path / "sse.csv"), load_prices(tmp_path / "nyse.csv")) == (sse, nyse)
        for rec in records:
            assert prices(rec) == prices(rec)
            assert np.array_equal(prices(rec).closes, load_prices(tmp_path / rec.price_file).closes)

    @pytest.mark.parametrize("settings", [(0, 300, 0.0, 1), (2, 2, 0.0, 1), (2, 300, 0.0, -1), (2, 300, math.inf, 1)])
    def test_bad_settings_raise_before_the_output_directory_exists(self, tmp_path, settings):
        with pytest.raises(ConfigError):
            generate_bundle(tmp_path / "bundle", *settings)
        assert not (tmp_path / "bundle").exists()

    def test_overflowing_firm_raises_when_its_prices_are_simulated(self):
        records, _, _, prices = simulate_bundle(2, 300, 1e6, 1)
        with pytest.raises(ConfigError, match="firm F00's simulated closes leave the floating-point range"):
            prices(records[0])


class TestImportFootprint:
    # fresh interpreters, so modules loaded by this test session do not count

    def test_cli_import_skips_scipy_stats_and_signal(self):
        code = (
            "import sys, crosslist.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'stats'], ['scipy', 'signal'])))"
        )
        out = fresh_python(["-c", code])
        assert out.returncode == 0 and out.stdout.strip() == "[]"

    def test_cli_import_freezes_import_time_objects(self):
        out = fresh_python(["-c", "import gc, crosslist.cli; print(gc.get_freeze_count())"])
        assert out.returncode == 0 and int(out.stdout) > 0


class TestColdRoundTrip:
    def test_commands_exit_zero_with_complete_reports(self, tmp_path):
        # each command in its own `python -m crosslist.cli` process, run to the
        # interpreter's exit in dev mode, where an unclosed file prints a warning;
        # the files must match an in-process run byte for byte
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        for root in (cold, warm):
            root.mkdir()
        chain = [
            ["simulate", "--out", "bundle", "--seed", "3"],
            ["validate", "--config", "bundle/run.ini"],
            ["event-study", "--config", "bundle/run.ini", "--out", "es"],
        ]
        dev_mode = ["-X", "dev", "-W", "error::ResourceWarning"]
        for argv in chain:
            out = fresh_python([*dev_mode, "-m", "crosslist.cli", *argv], cwd=cold)
            assert (out.returncode, out.stderr) == (0, ""), argv
        cwd = Path.cwd()
        try:
            os.chdir(warm)
            assert [main(argv) for argv in chain] == [0, 0, 0]
        finally:
            os.chdir(cwd)
        for name in ("bundle", "es"):
            assert file_hashes(cold / name) == file_hashes(warm / name)
        assert len(file_hashes(cold / "bundle")) == 14
        reports = ["coefficients.csv", "event.csv", "summary.json", "variance.csv"]
        assert sorted(file_hashes(cold / "es")) == reports
        summary = json.loads((cold / "es" / "summary.json").read_text(encoding="utf-8"))
        assert summary["n_firms_analyzed"] == 10 and summary["n_firms_skipped"] == 0
        assert len(read_csv(cold / "es" / "event.csv")) == 31


class TestValidate:
    def test_complete_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["simulate", "--out", str(out), "--seed", "7"])
        assert main(["validate", "--config", str(out / "run.ini")]) == 0
        captured = capsys.readouterr()
        assert "manifest: 10 instruments" in captured.out
        assert "validation ok" in captured.out

    def test_missing_price_file(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["simulate", "--out", str(out), "--seed", "7"])
        (out / "prices_F03.csv").unlink()
        assert main(["validate", "--config", str(out / "run.ini")]) == 2
        assert "prices_F03.csv" in capsys.readouterr().err

    def test_empty_manifest_warns(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["simulate", "--out", str(out), "--seed", "7"])
        header = (out / "manifest.csv").read_text(encoding="utf-8").splitlines()[0]
        (out / "manifest.csv").write_text(header + "\n", encoding="utf-8")
        assert main(["validate", "--config", str(out / "run.ini")]) == 0
        captured = capsys.readouterr()
        assert "no instruments" in captured.err

    def test_missing_config(self):
        assert main(["validate", "--config", "/nonexistent/run.ini"]) == 2

    def test_firm_sharing_no_date_with_the_indexes(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["simulate", "--out", str(out), "--seed", "7"])
        write_price_csv(out / "prices_F03.csv", np.full(200, 50.0), start=date(1990, 1, 1))
        capsys.readouterr()
        assert main(["validate", "--config", str(out / "run.ini")]) == 2
        assert capsys.readouterr().err == (
            "error: alignment[F03]: input series share no trading dates\nvalidation failed: 1 problem(s)\n"
        )

    @pytest.mark.parametrize("config", [None, "[data]\n", "[data]\nmanifest =\n\n[capm]\na_prices = a.csv\n"])
    def test_nothing_to_check_is_config_error(self, tmp_path, monkeypatch, capsys, config):
        # a run that reads no file must not report that the data passed
        monkeypatch.chdir(tmp_path)
        argv = ["validate"]
        if config is not None:
            (tmp_path / "run.ini").write_text(config, encoding="utf-8")
            argv += ["--config", "run.ini"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no data files configured")

    def test_non_utf8_price_file(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["simulate", "--out", str(out), "--seed", "7"])
        path = out / "prices_F03.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert main(["validate", "--config", str(out / "run.ini")]) == 2
        err = capsys.readouterr().err
        assert "prices_F03.csv: not valid UTF-8 text" in err

    def test_firm_sharing_no_date_with_fx(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=41)
        fx_rows = "".join(f"{d.isoformat()},0.125\n" for d in weekday_dates(date(2006, 1, 2), 300))
        (out / "fx.csv").write_text("date,rate\n" + fx_rows, encoding="utf-8")
        config = out / "run.ini"
        config.write_text(
            config.read_text(encoding="utf-8").replace("[data]\n", "[data]\nfx = fx.csv\n"), encoding="utf-8"
        )
        assert main(["validate", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("fx: 300 rows\nvalidation ok\n") and captured.err == ""

        (out / "fx.csv").write_text("date,rate\n1990-01-02,0.125\n1990-01-03,0.125\n", encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        for code in ("F00", "F01"):
            assert f"error: fx[{code}]: prices_{code}: no dates shared with the FX series" in err
        assert err[-1] == "validation failed: 2 problem(s)"

    def test_price_line_dates_below_year_1000(self, tmp_path, capsys):
        (tmp_path / "manifest.csv").write_text(
            ",".join(MANIFEST_COLUMNS) + "\nFirm,600001,N1,Energy,1e9,2006-01-02,2006-01-02,p.csv\n",
            encoding="utf-8",
        )
        (tmp_path / "p.csv").write_text(
            "date,close\n0999-12-30,1.5\n0999-12-31,1.5\n1000-01-02,1.5\n", encoding="utf-8"
        )
        (tmp_path / "run.ini").write_text("[data]\nmanifest = manifest.csv\n", encoding="utf-8")
        assert main(["validate", "--config", str(tmp_path / "run.ini")]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "manifest: 1 instruments\nprices[N1]: 3 rows, 0999-12-30..1000-01-02\nvalidation ok\n"
        )
        assert captured.err == ""


class TestCapm:
    def _write_bundle(self, tmp_path, stock_closes, index_closes):
        write_price_csv(tmp_path / "index.csv", index_closes)
        write_price_csv(tmp_path / "stock.csv", stock_closes)
        (tmp_path / "rf.csv").write_text(
            "date,annual_yield_pct\n2006-01-02,3.0\n2006-02-01,3.0\n", encoding="utf-8"
        )
        (tmp_path / "run.ini").write_text(
            "[data]\n"
            "local_index = index.csv\n"
            "local_risk_free = rf.csv\n"
            "[capm]\n"
            "a_prices = stock.csv\n"
            "period = monthly\n"
            "[run]\n"
            "output_dir = out\n",
            encoding="utf-8",
        )
        return tmp_path / "run.ini"

    def test_identity_class(self, tmp_path):
        rng = np.random.default_rng(3)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0.002, 0.05, 167)))
        closes = np.concatenate([[100.0], closes])
        config = self._write_bundle(tmp_path, closes, closes)
        assert main(["capm", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "capm.csv")
        assert len(rows) == 1
        assert rows[0]["class"] == "A"
        assert float(rows[0]["beta"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows[0]["alpha"]) == pytest.approx(0.0, abs=1e-9)

    def test_injected_beta_recovered(self, tmp_path):
        rng = np.random.default_rng(11)
        n_months = 168
        index_ret = rng.normal(0.005, 0.04, n_months)
        stock_ret = 0.002 + 2.0 * index_ret + rng.normal(0.0, 0.03, n_months)
        index_closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(index_ret)]))
        stock_closes = 50.0 * np.exp(np.concatenate([[0.0], np.cumsum(stock_ret)]))
        config = self._write_bundle(tmp_path, stock_closes, index_closes)
        assert main(["capm", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "capm.csv")
        beta = float(rows[0]["beta"])
        assert beta == pytest.approx(2.0, abs=0.15)
        # expected return must satisfy the CAPM identity at the reported rate
        rf = 3.0 / 100.0 / 12.0
        market_mean = float(np.mean(np.diff(np.log(index_closes))))
        expected = rf + beta * (market_mean - rf)
        assert float(rows[0]["expected_return"]) == pytest.approx(expected, rel=1e-6)

    def test_no_classes_configured(self, tmp_path):
        (tmp_path / "run.ini").write_text("[data]\n", encoding="utf-8")
        assert main(["capm", "--config", str(tmp_path / "run.ini")]) == 2

    def test_nan_yield_is_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, 120)))
        closes = np.concatenate([[100.0], closes])
        config = self._write_bundle(tmp_path, closes, closes)
        (tmp_path / "rf.csv").write_text(
            "date,annual_yield_pct\n2006-01-02,3.0\n2006-02-01,nan\n", encoding="utf-8"
        )
        assert main(["capm", "--config", str(config)]) == 2
        assert "row 2: annual_yield_pct 'nan' is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out" / "capm.csv").exists()

    def test_broken_class_skipped_other_kept(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, 120)))
        closes = np.concatenate([[100.0], closes])
        config = self._write_bundle(tmp_path, closes, closes)
        text = config.read_text(encoding="utf-8").replace(
            "[capm]\n", "[capm]\nn_prices = missing.csv\n"
        )
        # class N also needs an index to be attempted at all
        text = text.replace("[data]\n", "[data]\nus_index = index.csv\nus_risk_free = rf.csv\n")
        config.write_text(text, encoding="utf-8")
        assert main(["capm", "--config", str(config)]) == 0
        assert "class N skipped" in capsys.readouterr().err
        rows = read_csv(tmp_path / "out" / "capm.csv")
        assert [r["class"] for r in rows] == ["A"]

    def test_header_only_class_file_skips_the_class_naming_the_file(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        closes = np.concatenate([[100.0], 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, 120)))])
        config = self._write_bundle(tmp_path, closes, closes)
        (tmp_path / "n_stock.csv").write_text("date,close\n", encoding="utf-8")
        text = config.read_text(encoding="utf-8").replace("[capm]\n", "[capm]\nn_prices = n_stock.csv\n")
        text = text.replace("[data]\n", "[data]\nus_index = index.csv\nus_risk_free = rf.csv\n")
        config.write_text(text, encoding="utf-8")
        assert main(["capm", "--config", str(config)]) == 0
        assert capsys.readouterr().err == f"class N skipped: {tmp_path / 'n_stock.csv'}: no rows after the header\n"
        assert [r["class"] for r in read_csv(tmp_path / "out" / "capm.csv")] == ["A"]

    def test_class_without_index_is_skipped_other_kept(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        closes = np.concatenate([[100.0], 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, 120)))])
        config = self._write_bundle(tmp_path, closes, closes)
        text = config.read_text(encoding="utf-8").replace("local_index = index.csv\n", "")
        text = text.replace("[data]\n", "[data]\nus_index = index.csv\nus_risk_free = rf.csv\n")
        config.write_text(text.replace("[capm]\n", "[capm]\nn_prices = stock.csv\n"), encoding="utf-8")
        assert main(["capm", "--config", str(config)]) == 0
        assert capsys.readouterr().err == "class A skipped: no index series configured\n"
        assert [r["class"] for r in read_csv(tmp_path / "out" / "capm.csv")] == ["N"]

    def test_class_without_risk_free_is_named_once(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        closes = np.concatenate([[100.0], 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, 120)))])
        config = self._write_bundle(tmp_path, closes, closes)
        config.write_text(
            config.read_text(encoding="utf-8").replace("local_risk_free = rf.csv\n", ""), encoding="utf-8"
        )
        assert main(["capm", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "class A skipped: no risk-free series configured\ncapm failed: every class was skipped\n"
        )


class TestEventStudy:
    def _run(self, tmp_path, seed, effect=0.0, firms=10):
        out = tmp_path / "bundle"
        generate_bundle(out, firms, 300, effect, seed)
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        return out / "reports"

    def test_reports_shapes(self, tmp_path):
        reports = self._run(tmp_path, seed=19)
        event_rows = read_csv(reports / "event.csv")
        assert [int(r["offset"]) for r in event_rows] == list(range(-15, 16))
        coef_rows = read_csv(reports / "coefficients.csv")
        assert len(coef_rows) == 10
        assert list(coef_rows[0]) == [
            "code", "r_const", "r_sse", "r_nyse", "arch_lags", "garch_lags", "weight",
        ]
        assert sum(float(r["weight"]) for r in coef_rows) == pytest.approx(1.0, abs=1e-9)
        variance_rows = read_csv(reports / "variance.csv")
        assert len(variance_rows) == 10
        summary = json.loads((reports / "summary.json").read_text(encoding="utf-8"))
        assert summary["n_firms_analyzed"] == 10
        assert summary["currency_mode"] == "local-currency"

    def test_car_is_running_sum(self, tmp_path):
        reports = self._run(tmp_path, seed=23)
        rows = read_csv(reports / "event.csv")
        aar = np.array([float(r["aar"]) for r in rows])
        car = np.array([float(r["car"]) for r in rows])
        np.testing.assert_allclose(car, np.cumsum(aar), atol=1e-9)

    def test_single_firm_z_column_equals_star(self, tmp_path):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=1, n_days=300, effect=0.0, seed=29)
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        rows = read_csv(out / "reports" / "event.csv")
        coef = read_csv(out / "reports" / "coefficients.csv")
        assert len(coef) == 1
        assert float(coef[0]["weight"]) == pytest.approx(1.0)
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        assert summary["n_firms_analyzed"] == 1
        assert len(rows) == 31

        # recompute the lone firm's standardized ARs through the library;
        # with n=1 the report's z column must equal them
        config = load_config(out / "run.ini")
        rec = load_manifest(config.manifest_path)[0]
        result = study_firm(rec.n_code, *bundle_firm_inputs(out, rec), EventWindows(), weight=1.0)
        z_column = np.array([float(r["z"]) for r in rows])
        np.testing.assert_allclose(z_column, result.star, rtol=1e-7)

    def test_injected_negative_effect_flagged(self, tmp_path):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=10, n_days=300, effect=-0.04, seed=31)
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        assert summary["day0_aar"] == pytest.approx(-0.04, abs=0.012)
        assert summary["day0_significant_5pct"] is True
        rows = read_csv(out / "reports" / "event.csv")
        day0 = next(r for r in rows if int(r["offset"]) == 0)
        assert day0["significant"] == "true"

    def test_null_effect_rarely_significant(self, tmp_path):
        significant = 0
        n_seeds = 12
        for seed in range(100, 100 + n_seeds):
            out = tmp_path / f"bundle{seed}"
            generate_bundle(out, n_firms=6, n_days=300, effect=0.0, seed=seed)
            assert main(["event-study", "--config", str(out / "run.ini")]) == 0
            summary = json.loads(
                (out / "reports" / "summary.json").read_text(encoding="utf-8")
            )
            significant += summary["day0_significant_5pct"]
        assert significant <= 3

    def test_deterministic_reports(self, tmp_path):
        out = tmp_path / "bundle"
        main(["simulate", "--out", str(out), "--seed", "37"])
        assert main(["event-study", "--config", str(out / "run.ini"), "--out", str(tmp_path / "r1")]) == 0
        assert main(["event-study", "--config", str(out / "run.ini"), "--out", str(tmp_path / "r2")]) == 0
        assert file_hashes(tmp_path / "r1") == file_hashes(tmp_path / "r2")

    def test_summary_diagnostics_match_estimation_window_ols(self, tmp_path):
        # the reported diagnostics, and the regression that scales the StARs,
        # are the estimation-window OLS the GARCH fit carries; both must
        # equal a fit made here from the bundle's files
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=4, n_days=300, effect=0.0, seed=59)
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        config = load_config(out / "run.ini")
        windows = config.windows
        records = load_manifest(config.manifest_path)
        assert sorted(summary["diagnostics"]) == [rec.n_code for rec in records]
        for rec in records:
            returns, loc, us, day0 = bundle_firm_inputs(out, rec)
            est = slice(day0 + windows.estimation.lo, day0 + windows.estimation.hi + 1)
            regressors = [loc[est], us[est]]
            ols = ols_fit(returns[est], regressors)

            diag = diagnostics_report(ols)
            reported = summary["diagnostics"][rec.n_code]
            assert reported["dw"] == pytest.approx(diag.dw_statistic, rel=1e-12)
            assert reported["bg_p_value"] == pytest.approx(diag.bg_p_value, rel=1e-12)
            assert reported["heteroskedastic_5pct"] == diag.heteroskedastic_5pct

            result = study_firm(rec.n_code, returns, loc, us, day0, windows, weight=1.0)
            flat = fit_garch_market_model(returns[est], *regressors, GarchSpec(0, 0))
            assert (result.fit.spec.p, result.fit.spec.q) == (1, 1)
            for fit in (result.fit, flat):
                np.testing.assert_allclose(fit.ols.coefficients, ols.coefficients, rtol=1e-12)
                assert fit.ols.s2 == pytest.approx(ols.s2, rel=1e-12)
                np.testing.assert_allclose(fit.ols.xtx_inverse, ols.xtx_inverse, rtol=1e-12)

    def test_in_memory_study_matches_the_written_bundle(self, tmp_path):
        out = tmp_path / "bundle"
        generate_bundle(out, 3, 300, 0.0, 41)
        assert main(["event-study", "--config", str(out / "run.ini"), "--max-lags", "2,2"]) == 0
        records, sse, nyse, prices = simulate_bundle(3, 300, 0.0, 41)
        study = run_event_study(records, prices, sse, nyse, None, EventWindows(), max_p=2, max_q=2)
        write_event_reports(study, tmp_path / "memory")
        assert file_hashes(tmp_path / "memory") == file_hashes(out / "reports")

    def test_asymmetric_event_window_reports_day_zero(self, tmp_path):
        out = tmp_path / "bundle"
        generate_bundle(out, 3, 300, 0.0, 61)
        with open(out / "run.ini", "a", encoding="utf-8") as f:
            f.write("\n[windows]\nevent = -10,20\n")
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        windows = EventWindows(event=OffsetRange(-10, 20))
        records, sse, nyse, prices = simulate_bundle(3, 300, 0.0, 61)
        study = run_event_study(records, prices, sse, nyse, None, windows)
        write_event_reports(study, tmp_path / "memory")
        assert file_hashes(tmp_path / "memory") == file_hashes(out / "reports")

        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        rows = read_csv(out / "reports" / "event.csv")
        assert [int(row["offset"]) for row in rows] == list(range(-10, 21))
        (day0,) = [row for row in rows if row["offset"] == "0"]
        assert format(summary["day0_aar"], ".9g") == day0["aar"]
        assert format(summary["day0_z"], ".9g") == day0["z"]
        assert summary["windows"] == {name: [w.lo, w.hi] for name, w in vars(study.windows).items()}
        assert summary["windows"]["event"] == [-10, 20]

    def test_writer_refuses_a_study_with_no_panel(self, tmp_path):
        records, sse, nyse, _ = simulate_bundle(2, 300, 0.0, 41)

        def missing(rec):
            raise OSError(f"{rec.price_file}: file not found")

        study = run_event_study(records, missing, sse, nyse, None, EventWindows())
        with pytest.raises(ValueError, match="every firm was skipped"):
            write_event_reports(study, tmp_path / "reports")
        assert not (tmp_path / "reports").exists()

    def test_constant_close_firm_skipped_naming_the_exact_fit(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=41)
        write_price_csv(out / "prices_F01.csv", np.full(300, 50.0))
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        assert "firm F01 skipped: the OLS fit is exact" in capsys.readouterr().err
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        assert summary["skipped"]["F01"].startswith("the OLS fit is exact")
        assert summary["n_firms_analyzed"] == 1

    def test_firm_with_short_history_skipped(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=3, n_days=300, effect=0.0, seed=41)
        # truncate one firm's file so it cannot cover the event frame
        path = out / "prices_F01.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:80]) + "\n", encoding="utf-8")
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        captured = capsys.readouterr()
        assert "F01 skipped" in captured.err
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        assert summary["n_firms_analyzed"] == 2
        assert "F01" in summary["skipped"]

    def test_non_utf8_price_file_skips_firm(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=3, n_days=300, effect=0.0, seed=41)
        path = out / "prices_F01.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        err = capsys.readouterr().err
        assert "F01 skipped" in err and "not valid UTF-8 text" in err
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        assert summary["n_firms_analyzed"] == 2
        assert "F01" in summary["skipped"]

    def test_header_only_price_file_skips_firm_naming_the_file(self, tmp_path):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=41)
        path = out / "prices_F01.csv"
        _header_only(path)
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        assert summary["skipped"] == {"F01": f"{path}: no rows after the header"}
        assert summary["n_firms_analyzed"] == 1 and list(summary["diagnostics"]) == ["F00"]

    def test_header_only_manifest_is_analysis_failure(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=43)
        (out / "manifest.csv").write_text(",".join(MANIFEST_COLUMNS) + "\n", encoding="utf-8")
        assert main(["event-study", "--config", str(out / "run.ini")]) == 1
        assert capsys.readouterr().err == "event-study failed: manifest has no instruments\n"
        assert not (out / "reports").exists()

    def test_all_firms_skipped_is_analysis_failure(self, tmp_path):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=43)
        for name in ("prices_F00.csv", "prices_F01.csv"):
            path = out / name
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join(lines[:50]) + "\n", encoding="utf-8")
        assert main(["event-study", "--config", str(out / "run.ini")]) == 1

    def test_windows_override(self, tmp_path):
        out = tmp_path / "bundle"
        main(["simulate", "--out", str(out), "--seed", "47"])
        rc = main(
            [
                "event-study",
                "--config",
                str(out / "run.ini"),
                "--windows=-80,-10,-10,10",
                "--out",
                str(tmp_path / "w"),
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "w" / "event.csv")
        assert [int(r["offset"]) for r in rows] == list(range(-10, 11))

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_event_window_without_day_zero_is_config_error(self, tmp_path, capsys, source):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=41)
        reports = tmp_path / "reports"
        argv = ["event-study", "--config", str(out / "run.ini"), "--out", str(reports)]
        if source == "config":
            with open(out / "run.ini", "a", encoding="utf-8") as f:
                f.write("\n[windows]\nevent = 1,10\n")
        else:
            argv.append("--windows=-105,-15,1,10")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith("the event window must contain day 0")
        assert "Traceback" not in captured.err
        assert not reports.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_short_estimation_window_is_config_error(self, tmp_path, capsys, source):
        # below the fit's 60 observations every firm would be skipped; the
        # window is refused instead, before any fit, naming where it came from
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=3)
        reports = tmp_path / "reports"
        argv = ["event-study", "--config", str(out / "run.ini"), "--out", str(reports)]
        if source == "config":
            with open(out / "run.ini", "a", encoding="utf-8") as f:
                f.write("\n[windows]\nestimation = -50,-15\n")
            expected = f"error: {out / 'run.ini'}: estimation window must span >= 60 days, got 36"
        else:
            argv.append("--windows=-73,-15,-15,15")
            expected = "error: --windows: estimation window must span >= 60 days, got 59"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected + "\n")
        assert not reports.exists()

    def test_fx_mode_flagged(self, tmp_path):
        out = tmp_path / "bundle"
        generate_bundle(out, n_firms=2, n_days=300, effect=0.0, seed=53)
        dates = weekday_dates(date(2006, 1, 2), 300)
        with open(out / "fx.csv", "w", encoding="utf-8") as f:
            f.write("date,rate\n")
            for d in dates:
                f.write(f"{d.isoformat()},0.125\n")
        config_text = (out / "run.ini").read_text(encoding="utf-8")
        (out / "run.ini").write_text(
            config_text.replace("[data]\n", "[data]\nfx = fx.csv\n"), encoding="utf-8"
        )
        assert main(["event-study", "--config", str(out / "run.ini")]) == 0
        summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
        assert summary["currency_mode"] == "usd"


class TestConfigParsing:
    def test_windows_from_config(self, tmp_path):
        (tmp_path / "run.ini").write_text(
            "[windows]\n"
            "estimation = -90,-20\n"
            "event = -20,20\n"
            "pre_var = -90,-20\n"
            "post_var = 20,90\n",
            encoding="utf-8",
        )
        config = load_config(tmp_path / "run.ini")
        assert (config.windows.estimation.lo, config.windows.estimation.hi) == (-90, -20)
        assert (config.windows.post_var.lo, config.windows.post_var.hi) == (20, 90)

    def test_bad_windows_rejected(self, tmp_path):
        (tmp_path / "run.ini").write_text("[windows]\nestimation = -10,-5\n", encoding="utf-8")
        assert main(["validate", "--config", str(tmp_path / "run.ini")]) == 2

    def test_bad_max_lags_flag(self, tmp_path, capsys):
        # the error names the flag, the config key it overrides and the value
        (tmp_path / "run.ini").write_text("[data]\n", encoding="utf-8")
        for lags, expected in (
            ("9,9", "garch.max_p must be in [1, 2], got 9"),
            ("3,1", "garch.max_p must be in [1, 2], got 3"),
            ("0,1", "garch.max_p must be in [1, 2], got 0"),
            ("1,3", "garch.max_q must be in [1, 2], got 3"),
        ):
            assert main(["validate", "--config", str(tmp_path / "run.ini"), "--max-lags", lags]) == 2
            assert capsys.readouterr() == ("", f"error: --max-lags: {expected}\n")

    def test_max_lags_flag_not_two_integers(self, tmp_path, capsys):
        (tmp_path / "run.ini").write_text("[data]\n", encoding="utf-8")
        assert main(["validate", "--config", str(tmp_path / "run.ini"), "--max-lags", "1,x"]) == 2
        assert capsys.readouterr() == ("", "error: --max-lags must be 2 comma-separated integers, got '1,x'\n")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[garch]\nmax_p = 3\n", "garch.max_p must be in [1, 2], got 3"),
            ("[garch]\nmax_q = 0\n", "garch.max_q must be in [1, 2], got 0"),
            ("[capm]\nperiod = weekly\n", "capm.period must be one of ['daily', 'monthly'], got 'weekly'"),
            ("[windows]\nevent = -5\n", "windows.event must be 2 comma-separated integers, got '-5'"),
        ],
    )
    def test_bad_config_value_names_the_file_and_key(self, tmp_path, capsys, text, expected):
        (tmp_path / "run.ini").write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(tmp_path / "run.ini")]) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path / 'run.ini'}: {expected}\n")

    def test_bad_interpolation_in_windows_is_config_error(self, tmp_path, capsys):
        (tmp_path / "run.ini").write_text("[windows]\nestimation = 5%\n", encoding="utf-8")
        assert main(["validate", "--config", str(tmp_path / "run.ini")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'run.ini'}: '%' must be followed")

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_empty_output_dir_is_config_error(self, tmp_path, monkeypatch, capsys, source):
        # empty, either would name the directory that holds run.ini, and
        # `simulate` would replace the user's config with its own
        config = tmp_path / "run.ini"
        text = "[simulate]\nfirms = 2\n\n[run]\noutput_dir =" + (" out\n" if source == "flag" else "\n")
        config.write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--config", "run.ini"] + (["--out", ""] if source == "flag" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("--out" if source == "flag" else "run.output_dir") in err
        assert config.read_text(encoding="utf-8") == text
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_byte_order_mark_loads_as_without(self, tmp_path):
        text = "[data]\nmanifest = manifest.csv\n\n[garch]\nmax_p = 2\n"
        (tmp_path / "plain.ini").write_text(text, encoding="utf-8")
        (tmp_path / "marked.ini").write_text(text, encoding="utf-8-sig")
        assert load_config(tmp_path / "marked.ini") == load_config(tmp_path / "plain.ini")

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        (sub / "run.ini").write_text("[data]\nmanifest = manifest.csv\n", encoding="utf-8")
        config = load_config(sub / "run.ini")
        assert config.manifest_path == sub / "manifest.csv"


def _header_only(path):
    path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")


def _directory(path):
    path.unlink()
    path.mkdir()


BAD_INPUTS = {
    "missing": Path.unlink,
    "directory": _directory,
    "not utf-8": lambda path: path.write_bytes(b"\xff" + path.read_bytes()),
    "header only": _header_only,
}


@pytest.mark.parametrize(
    "command, damage, name",
    [
        ("validate", "missing", "manifest.csv"),
        ("validate", "directory", "manifest.csv"),
        ("validate", "directory", "prices_F01.csv"),
        ("validate", "directory", "run.ini"),
        ("validate", "not utf-8", "run.ini"),
        ("validate", "header only", "prices_F01.csv"),
        ("validate", "header only", "fx.csv"),
        ("validate", "header only", "rf.csv"),
        ("capm", "missing", "sse.csv"),
        ("capm", "--out under a file", "out"),
        ("capm", "directory", "run.ini"),
        ("capm", "not utf-8", "run.ini"),
        ("capm", "header only", "rf.csv"),
        ("capm", "header only", "sse.csv"),
        ("event-study", "missing", "sse.csv"),
        ("event-study", "--out under a file", "out"),
        ("event-study", "directory", "run.ini"),
        ("event-study", "not utf-8", "run.ini"),
        ("event-study", "header only", "sse.csv"),
        ("event-study", "header only", "nyse.csv"),
        ("event-study", "header only", "fx.csv"),
        ("simulate", "--out under a file", "out"),
        ("simulate", "directory", "run.ini"),
        ("simulate", "not utf-8", "run.ini"),
    ],
)
def test_bad_input_is_named_error(tmp_path, capsys, command, damage, name):
    # one bundle that every command can run from: its run.ini also sets FX and a capm class
    bundle = tmp_path / "bundle"
    generate_bundle(bundle, 3, 300, 0.0, 41)
    (bundle / "rf.csv").write_text(
        "date,annual_yield_pct\n2006-01-02,3.0\n2006-02-01,3.0\n", encoding="utf-8"
    )
    fx_rows = "".join(f"{d.isoformat()},0.125\n" for d in weekday_dates(date(2006, 1, 2), 300))
    (bundle / "fx.csv").write_text("date,rate\n" + fx_rows, encoding="utf-8")
    config = bundle / "run.ini"
    text = config.read_text(encoding="utf-8").replace(
        "[data]\n", "[data]\nlocal_risk_free = rf.csv\nfx = fx.csv\n"
    )
    config.write_text(text + "\n[capm]\na_prices = prices_F00.csv\n", encoding="utf-8")
    argv = [command, "--config", str(config)]
    path = bundle / name
    if damage == "--out under a file":
        path.write_text("a plain file, not a directory", encoding="utf-8")
        path = path / "reports"
        argv += ["--out", str(path)]
    else:
        BAD_INPUTS[damage](path)

    # an exception escaping main fails the test, as it would print a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("error:") and str(path) in line for line in err.splitlines()), err


@pytest.mark.parametrize("command", ["event-study", "validate", "capm"])
def test_index_files_may_share_a_file_name(tmp_path, capsys, command):
    # loc/index.csv and us/index.csv both load with the id "index"; a command
    # must print and write what it does when the two names differ
    results = []
    for i, (local, us) in enumerate([("loc/sse.csv", "us/nyse.csv"), ("loc/index.csv", "us/index.csv")]):
        bundle = tmp_path / f"bundle{i}"
        generate_bundle(bundle, 3, 300, 0.0, 41)
        for written, moved in (("sse.csv", local), ("nyse.csv", us)):
            (bundle / moved).parent.mkdir()
            (bundle / written).rename(bundle / moved)
        (bundle / "rf.csv").write_text(
            "date,annual_yield_pct\n2006-01-02,3.0\n2006-02-01,3.0\n", encoding="utf-8"
        )
        config = bundle / "run.ini"
        config.write_text(
            "[data]\nmanifest = manifest.csv\n"
            f"local_index = {local}\nus_index = {us}\n"
            "local_risk_free = rf.csv\nus_risk_free = rf.csv\n"
            "[capm]\na_prices = prices_F00.csv\nn_prices = prices_F01.csv\n",
            encoding="utf-8",
        )
        out = bundle / "out"
        code = main([command, "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        reports = file_hashes(out) if out.exists() else {}
        results.append((code, captured.out.replace(str(bundle), "<bundle>"), captured.err, reports))
    assert results[1] == results[0]
    code, stdout, stderr, reports = results[1]
    assert code == 0 and stderr == ""
    if command == "validate":
        assert stdout.endswith("validation ok\n")
    else:
        assert reports
