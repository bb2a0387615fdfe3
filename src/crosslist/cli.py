"""Batch front-end: validate data bundles, run the CAPM comparison, run the
event study, and generate synthetic bundles.

Commands are deterministic given (config, seed): repeated runs write
byte-identical CSV and JSON reports.  `main` is the one place that maps
errors to exit codes: 0 success, 1 analysis failed (e.g. every firm
skipped), 2 input or configuration error (a `CrosslistError` or `OSError`
that escapes the command, printed as `error: <message>`).
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager

# Any of these set by the user fixes OpenBLAS's thread count, and is left alone.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _cold_start():
    """Run the imports below with one BLAS thread and the collector off, then freeze what they made.

    numpy and scipy each load an OpenBLAS that starts one worker thread per
    CPU unless one of `BLAS_THREAD_VARIABLES` is set.  The package's
    matrices are too small for OpenBLAS to split, so the workers only add
    start-up time.  OpenBLAS reads the variable once, as each library
    loads, so it is set for these imports only and then removed:
    `os.environ` ends as it began, and no child process or later code sees
    it.  With the collector off, no collection passes over the objects of
    the roughly 700 modules as they load; `gc.freeze()` then moves them
    into the permanent generation, which the later collections, and those
    run as the interpreter exits, skip (about 0.13 s of a cold run at
    exit).  Done once at import, not in `main`, which tests and tracers
    call repeatedly.  Only CLI processes import this module;
    `import crosslist` never freezes.
    """
    preset = any(name in os.environ for name in BLAS_THREAD_VARIABLES)
    if not preset:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if not preset:
            del os.environ["OPENBLAS_NUM_THREADS"]
        if collecting:
            gc.enable()


with _cold_start():
    import argparse
    import configparser
    import math
    import sys
    from dataclasses import dataclass, replace
    from pathlib import Path

    import numpy as np

    from . import market_data
    from .errors import ConfigError, CrosslistError
    from .event_study import (
        EventWindows,
        OffsetRange,
        _fmt,
        _write_csv,
        run_event_study,
        write_event_reports,
    )
    from .garch import MAX_VARIANCE_LAGS, simulate_bundle
    from .linear_models import (
        capm_expected_return,
        classify_durbin_watson,
        durbin_watson,
        ols_fit,
    )
    from .market_data import PriceSeries, align

PERIODS_PER_YEAR = {"monthly": 12, "daily": 252}

CAPM_CSV_HEADER = "class,alpha,alpha_se,alpha_t,beta,beta_se,beta_t,dw,expected_return"


@dataclass
class RunConfig:
    """Everything a command needs, from the config file and flags; a bad period or lag is a ConfigError."""

    manifest_path: Path | None = None
    local_index_path: Path | None = None
    us_index_path: Path | None = None
    fx_path: Path | None = None
    local_risk_free_path: Path | None = None
    us_risk_free_path: Path | None = None
    capm_a_prices: Path | None = None
    capm_n_prices: Path | None = None
    period: str = "daily"
    windows: EventWindows = EventWindows()
    max_p: int = 1
    max_q: int = 1
    seed: int = 0
    output_dir: Path = Path("out")
    sim_firms: int = 10
    sim_days: int = 300
    sim_effect: float = 0.0

    def __post_init__(self) -> None:
        if self.period not in PERIODS_PER_YEAR:
            raise ConfigError(f"capm.period must be one of {sorted(PERIODS_PER_YEAR)}, got {self.period!r}")
        for key, v in (("garch.max_p", self.max_p), ("garch.max_q", self.max_q)):
            if not 1 <= v <= MAX_VARIANCE_LAGS:
                raise ConfigError(f"{key} must be in [1, {MAX_VARIANCE_LAGS}], got {v}")


def _parse_ints(text: str, count: int, key: str) -> list[int]:
    """`count` comma-separated integers, or a ConfigError naming `key`."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise ConfigError(f"{key} must be {count} comma-separated integers, got {text!r}")
    return values


def load_config(path: str | Path) -> RunConfig:
    """Parse the flat sectioned key=value config file."""
    path = Path(path)
    # a ";" after whitespace starts a comment, as in README's example; "out;1" stays a value
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8-sig") as f:  # a byte-order mark is not part of the first line
            parser.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8 text") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    base = path.parent

    def _path(section: str, key: str) -> Path | None:
        raw = parser.get(section, key, fallback="").strip()
        return (base / raw) if raw else None

    try:
        windows_kwargs = {}
        for key in ("estimation", "event", "pre_var", "post_var"):
            raw = parser.get("windows", key, fallback="").strip()
            if raw:
                windows_kwargs[key] = OffsetRange(*_parse_ints(raw, 2, f"windows.{key}"))
        windows = EventWindows(**windows_kwargs)
        output_dir = parser.get("run", "output_dir", fallback="out").strip()
        if not output_dir:  # it would be the config's own directory, where `simulate` replaces run.ini
            raise ConfigError("run.output_dir must not be empty")
        return RunConfig(
            manifest_path=_path("data", "manifest"),
            local_index_path=_path("data", "local_index"),
            us_index_path=_path("data", "us_index"),
            fx_path=_path("data", "fx"),
            local_risk_free_path=_path("data", "local_risk_free"),
            us_risk_free_path=_path("data", "us_risk_free"),
            capm_a_prices=_path("capm", "a_prices"),
            capm_n_prices=_path("capm", "n_prices"),
            period=parser.get("capm", "period", fallback="daily").strip(),
            windows=windows,
            max_p=parser.getint("garch", "max_p", fallback=1),
            max_q=parser.getint("garch", "max_q", fallback=1),
            seed=parser.getint("run", "seed", fallback=0),
            output_dir=base / output_dir,
            sim_firms=parser.getint("simulate", "firms", fallback=10),
            sim_days=parser.getint("simulate", "days", fallback=300),
            sim_effect=parser.getfloat("simulate", "effect", fallback=0.0),
        )
    except (ValueError, configparser.Error, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _say(message: str) -> None:
    print(message)


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def cmd_validate(config: RunConfig) -> int:
    """Check every configured file: schema, row counts, date ranges, alignment, FX dates."""
    data_paths = (
        config.manifest_path, config.local_index_path, config.us_index_path,
        config.fx_path, config.local_risk_free_path, config.us_risk_free_path,
    )
    if all(path is None for path in data_paths):
        raise ConfigError(
            "no data files configured (set data manifest, local_index, us_index, fx, "
            "local_risk_free and/or us_risk_free)"
        )
    problems = 0

    def _problem(label: str, exc: Exception) -> None:
        nonlocal problems
        _warn(f"error: {label}: {exc}")
        problems += 1

    def _attempt(path: Path, load):
        """`load(path)`, or the CrosslistError or OSError it raised."""
        try:
            if not path.exists():
                raise FileNotFoundError(f"file not found: {path}")
            return load(path)
        except (CrosslistError, OSError) as exc:
            return exc

    def _report(label: str, loaded, describe):
        """Print `describe` of what `_attempt` loaded; report a failure and return None."""
        if isinstance(loaded, Exception):
            _problem(label, loaded)
            return None
        _say(f"{label}: {describe(loaded)}")
        return loaded

    def _describe_prices(series: PriceSeries) -> str:
        return f"{len(series)} rows, {series.dates[0]}..{series.dates[-1]}"

    def _describe_rates(rates) -> str:
        return f"{len(rates.dates)} rows"

    records = []
    if config.manifest_path is not None:
        records = _report(
            "manifest",
            _attempt(config.manifest_path, market_data.load_manifest),
            lambda r: f"{len(r)} instruments",
        )
        if records == []:  # loaded, and empty
            _warn("warning: no instruments in manifest")

    indexes = [
        _report(label, _attempt(path, market_data.load_prices), _describe_prices)
        for label, path in (("local_index", config.local_index_path), ("us_index", config.us_index_path))
        if path is not None
    ]
    can_align = len(indexes) == 2 and None not in indexes
    # loaded before the firms, so each firm is checked against its dates, and reported after them
    fx = None
    if config.fx_path is not None:
        fx = _attempt(config.fx_path, market_data.load_fx)

    for rec in records or ():
        path = config.manifest_path.parent / rec.price_file
        series = _report(f"prices[{rec.n_code}]", _attempt(path, market_data.load_prices), _describe_prices)
        if series is not None and can_align:
            try:
                panel = align([series] + indexes)
                lost = len(series) - len(panel.common_dates)
                _say(f"alignment[{rec.n_code}]: {len(panel.common_dates)} common dates (lost {lost})")
            except CrosslistError as exc:
                _problem(f"alignment[{rec.n_code}]", exc)
        if series is not None and isinstance(fx, market_data.RateSeries):
            try:
                market_data.convert_to_usd(series, fx)
            except CrosslistError as exc:
                _problem(f"fx[{rec.n_code}]", exc)

    if fx is not None:
        _report("fx", fx, _describe_rates)
    for label, path in (
        ("local_risk_free", config.local_risk_free_path),
        ("us_risk_free", config.us_risk_free_path),
    ):
        if path is not None:
            _report(label, _attempt(path, market_data.load_risk_free), _describe_rates)

    if problems:
        _warn(f"validation failed: {problems} problem(s)")
        return 2
    _say("validation ok")
    return 0


# --------------------------------------------------------------------------
# capm
# --------------------------------------------------------------------------

def _mean_annual_yield_as_period_rate(path: Path, period: str) -> float:
    rates = market_data.load_risk_free(path)
    return float(np.mean(rates.values)) / 100.0 / PERIODS_PER_YEAR[period]


def _capm_class_row(label: str, prices_path: Path, index: PriceSeries, rf: float | None) -> list:
    if rf is None:
        raise ConfigError("no risk-free series configured")
    panel = align([market_data.load_prices(prices_path), index])
    y, x = (np.diff(np.log(v)) for v in panel.closes)
    fit = ols_fit(y, [x])
    # an exact fit makes the statistic 0/0; any other fit has nonzero residuals
    dw = float("nan") if fit.s2 == 0.0 else durbin_watson(fit.residuals)
    market_mean = float(np.mean(x))
    se = fit.std_errors
    t = fit.t_stats
    return [
        label,
        fit.alpha, float(se[0]), float(t[0]),
        float(fit.betas[0]), float(se[1]), float(t[1]),
        dw,
        capm_expected_return(float(fit.betas[0]), rf, market_mean),
    ]


def cmd_capm(config: RunConfig) -> int:
    """Estimate the market model and CAPM expected return per share class.

    A bad index or risk-free series is an input error (exit 2); a class
    whose own price file fails, or whose estimation fails, is skipped.
    """
    classes = []
    if config.capm_a_prices is not None:
        classes.append(("A", config.capm_a_prices, config.local_index_path, config.local_risk_free_path))
    if config.capm_n_prices is not None:
        classes.append(("N", config.capm_n_prices, config.us_index_path, config.us_risk_free_path))
    if not classes:
        raise ConfigError("no capm classes configured (set capm a_prices and/or n_prices)")

    rows = []
    for label, prices_path, index_path, rf_path in classes:
        if index_path is None:
            _warn(f"class {label} skipped: no index series configured")
            continue
        index = market_data.load_prices(index_path)
        rf = None if rf_path is None else _mean_annual_yield_as_period_rate(rf_path, config.period)
        try:
            rows.append(_capm_class_row(label, prices_path, index, rf))
        except (CrosslistError, OSError) as exc:
            _warn(f"class {label} skipped: {exc}")
    if not rows:
        _warn("capm failed: every class was skipped")
        return 1

    config.output_dir.mkdir(parents=True, exist_ok=True)
    out = config.output_dir / "capm.csv"
    _write_csv(out, CAPM_CSV_HEADER, rows)
    _say(f"{len(rows)} class(es) -> {out}")
    _say(
        f"rates are per {config.period} period; "
        f"market mean is the sample mean of index returns over the sample"
    )
    for row in rows:
        dw_note = classify_durbin_watson(row[7]) if not math.isnan(row[7]) else "undefined"
        _say(f"class {row[0]}: beta={_fmt(row[4])} dw={_fmt(row[7])} ({dw_note})")
    return 0


# --------------------------------------------------------------------------
# event-study
# --------------------------------------------------------------------------

def cmd_event_study(config: RunConfig) -> int:
    """Run the event study over the manifest and write the four reports."""
    if config.manifest_path is None or config.local_index_path is None or config.us_index_path is None:
        raise ConfigError("event-study needs manifest, local_index, and us_index configured")
    records = market_data.load_manifest(config.manifest_path)
    local_prices = market_data.load_prices(config.local_index_path)
    us_prices = market_data.load_prices(config.us_index_path)
    fx = market_data.load_fx(config.fx_path) if config.fx_path else None
    if not records:
        _warn("event-study failed: manifest has no instruments")
        return 1

    def load_firm(rec) -> PriceSeries:
        return market_data.load_prices(config.manifest_path.parent / rec.price_file)

    result = run_event_study(
        records, load_firm, local_prices, us_prices, fx, config.windows,
        max_p=config.max_p, max_q=config.max_q,
    )
    for firm_id, exc in result.skipped.items():
        _warn(f"firm {firm_id} skipped: {exc}")
    if result.panel is None:
        _warn("event-study failed: every firm was skipped")
        return 1

    write_event_reports(result, config.output_dir)
    _say(
        f"{len(result.firms)} firm(s) analyzed, {len(result.skipped)} skipped -> "
        f"{config.output_dir}/{{coefficients,event,variance}}.csv, summary.json"
    )
    return 0


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def generate_bundle(out_dir: Path, n_firms: int, n_days: int, effect: float, seed: int) -> None:
    """Write `simulate_bundle`'s indexes, firm prices, manifest and run.ini under out_dir.

    Byte-identical for a fixed seed.  Bad settings raise ConfigError before
    anything is written; closes that leave the floating-point range, only
    when that firm is reached, after the files before it are written.
    """
    records, local_index, us_index, prices = simulate_bundle(n_firms, n_days, effect, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    market_data.write_prices(local_index, out_dir / "sse.csv")
    market_data.write_prices(us_index, out_dir / "nyse.csv")
    for rec in records:
        market_data.write_prices(prices(rec), out_dir / rec.price_file)
    market_data.write_manifest(records, out_dir / "manifest.csv")
    (out_dir / "run.ini").write_text(
        "[data]\nmanifest = manifest.csv\nlocal_index = sse.csv\nus_index = nyse.csv\n\n"
        "[garch]\nmax_p = 1\nmax_q = 1\n\n"
        f"[run]\nseed = {seed}\noutput_dir = reports\n",
        encoding="utf-8",
    )


def cmd_simulate(config: RunConfig) -> int:
    """Write a synthetic data bundle into the output directory."""
    generate_bundle(config.output_dir, config.sim_firms, config.sim_days, config.sim_effect, config.seed)
    _say(
        f"wrote {config.sim_firms} firm file(s), 2 index files, manifest.csv, run.ini "
        f"-> {config.output_dir}"
    )
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosslist",
        description="Cross-listing analysis: data validation, CAPM, event study, simulation.",
    )
    parser.add_argument("command", choices=["validate", "capm", "event-study", "simulate"])
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--out", help="override the configured output directory")
    parser.add_argument(
        "--windows",
        help="override event windows as est_lo,est_hi,ev_lo,ev_hi "
        "(variance windows become the estimation range and its mirror)",
    )
    parser.add_argument("--max-lags", help="override the lag search ceiling as p,q")
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.out == "":  # Path("") is the working directory
        raise ConfigError("--out must not be empty")
    if args.out is not None:
        changes["output_dir"] = Path(args.out)
    if args.windows is not None:
        a, b, c, d = _parse_ints(args.windows, 4, "--windows")
        try:
            changes["windows"] = EventWindows(
                estimation=OffsetRange(a, b),
                event=OffsetRange(c, d),
                pre_var=OffsetRange(a, b),
                post_var=OffsetRange(-b, -a),
            )
        except ValueError as exc:
            raise ConfigError(f"--windows: {exc}") from None
    if args.max_lags is not None:
        max_p, max_q = _parse_ints(args.max_lags, 2, "--max-lags")
        try:
            config = replace(config, max_p=max_p, max_q=max_q)
        except ConfigError as exc:
            raise ConfigError(f"--max-lags: {exc}") from None
    return replace(config, **changes)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The one error boundary: a `CrosslistError` (`ConfigError` included) or
    `OSError` escaping the config file, the flag overrides or the command is
    printed as `error: <message>` on stderr and ends the run with exit 2.
    """
    args = _build_parser().parse_args(argv)
    commands = {
        "validate": cmd_validate,
        "capm": cmd_capm,
        "event-study": cmd_event_study,
        "simulate": cmd_simulate,
    }
    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            config = RunConfig(output_dir=Path.cwd() / "out")
        return commands[args.command](_apply_overrides(config, args))
    except (CrosslistError, OSError) as exc:
        _warn(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
