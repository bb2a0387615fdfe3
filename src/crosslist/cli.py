"""Batch front-end: validate data bundles, run the CAPM comparison, run the
event study, and generate synthetic bundles.

Commands are deterministic given (config, seed): repeated runs write
byte-identical CSV and JSON reports.  `main` is the one place that maps
errors to exit codes: 0 success, 1 analysis failed (e.g. every firm
skipped), 2 input or configuration error (a `CrosslistError` or `OSError`
that escapes the command, printed as `error: <message>`).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import gc
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import market_data
from .errors import CrosslistError, NonPositivePrice
from .event_study import (
    EventStudyResult,
    EventWindows,
    OffsetRange,
    Z_CRITICAL_5PCT,
    run_event_study,
)
from .garch import GarchSimConfig, GarchSpec, MAX_VARIANCE_LAGS, simulate_garch
from .linear_models import (
    capm_expected_return,
    classify_durbin_watson,
    durbin_watson,
    ols_fit,
)
from .market_data import InstrumentRecord, PriceSeries, align
from .stats_core import ReturnSeries

# Move everything that exists once numpy and scipy are imported into the
# permanent generation, so the collections run as the interpreter exits skip
# those objects instead of tearing them down (about 0.13 s of a cold run).
# Done once at import, not in `main`, which tests and tracers call repeatedly.
gc.freeze()

PERIODS_PER_YEAR = {"monthly": 12, "daily": 252}

CAPM_CSV_HEADER = (
    "class,alpha,alpha_se,alpha_t,beta,beta_se,beta_t,dw,expected_return"
)
EVENT_CSV_HEADER = "offset,aar,car,z,significant"
VARIANCE_CSV_HEADER = "firm,ratio,f_stat,p_value,significant"
COEFFICIENTS_CSV_HEADER = "code,r_const,r_sse,r_nyse,arch_lags,garch_lags,weight"


class ConfigError(CrosslistError):
    pass


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
            raise ConfigError(f"capm period must be one of {sorted(PERIODS_PER_YEAR)}, got {self.period!r}")
        if not (1 <= self.max_p <= MAX_VARIANCE_LAGS and 1 <= self.max_q <= MAX_VARIANCE_LAGS):
            raise ConfigError(f"garch max_p/max_q must be in [1, {MAX_VARIANCE_LAGS}]")


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
        with open(path, encoding="utf-8") as f:
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
            raise ConfigError(f"{path}: run.output_dir must not be empty")
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
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None


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


def _say(message: str) -> None:
    print(message)


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def cmd_validate(config: RunConfig) -> int:
    """Check every configured file: schema, row counts, date ranges, alignment, FX dates."""
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
    capm = capm_expected_return(float(fit.betas[0]), rf, market_mean)
    se = fit.std_errors
    t = fit.t_stats
    return [
        label,
        fit.alpha, float(se[0]), float(t[0]),
        float(fit.betas[0]), float(se[1]), float(t[1]),
        dw,
        capm.expected_return,
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

_INDUSTRIES = ("Energy", "Transport", "Utilities", "Insurance", "Materials", "Telecom")
# business days from 2006-01-02, the first simulated date, through 9999-12-31,
# the last date `datetime.date` holds: np.busday_count("2006-01-02", "10000-01-01")
MAX_SIM_DAYS = 2_085_535


def _prices_from_returns(first_close: float, returns: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow to inf fails PriceSeries's check instead
        return first_close * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))


def simulate_bundle(n_firms: int, n_days: int, effect: float, seed: int):
    """A synthetic bundle in memory, as `(records, local_index, us_index, prices)`.

    Firms follow the two-index market model with GARCH(1,1) errors; `effect`
    is added to each firm's return on its listing day.  `prices(record)`
    simulates that firm's closes, the same on every call, from a seed drawn
    here.  Bad settings raise ConfigError; a firm whose closes leave the
    floating-point range raises it only when `prices` is called for it.
    """
    if n_firms < 1:
        raise ConfigError(f"need at least 1 firm, got {n_firms}")
    if not 3 <= n_days <= MAX_SIM_DAYS:
        raise ConfigError(f"days must be in [3, {MAX_SIM_DAYS}], got {n_days}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(effect):
        raise ConfigError(f"effect must be finite, got {effect}")
    rng = np.random.default_rng(seed)
    # the first `n_days` business days from 2006-01-02, as `datetime64[D]`
    dates = np.busday_offset(np.datetime64("2006-01-02"), np.arange(n_days), roll="forward")
    n_returns = n_days - 1

    # dated index returns: `simulate_garch` takes their dates rather than building a grid per firm
    loc_ret = ReturnSeries("sse", dates[1:], 0.0002 + 0.012 * rng.standard_normal(n_returns))
    us_ret = ReturnSeries("nyse", dates[1:], 0.0002 + 0.010 * rng.standard_normal(n_returns))
    local_index = PriceSeries("sse", dates, _prices_from_returns(100.0, loc_ret.values))
    us_index = PriceSeries("nyse", dates, _prices_from_returns(100.0, us_ret.values))

    # each firm simulates from its own seed, so drawing every firm's settings
    # first leaves the bundle generator's sequence as one loop would draw it
    lo = min(106, n_days - 1)
    hi = max(n_days - 106, lo)
    records = []
    firms = {}
    for i in range(n_firms):
        n_code = f"F{i:02d}"
        beta = (float(rng.normal(0.0, 2e-4)), float(rng.uniform(0.4, 1.2)), float(rng.uniform(0.1, 0.6)))
        sigma = float(rng.uniform(0.012, 0.025))
        alpha1, gamma1 = 0.08, 0.85
        event_idx = int(rng.integers(lo, hi + 1))
        firms[n_code] = event_idx, GarchSimConfig(
            spec=GarchSpec(1, 1),
            true_mean_coefficients=beta,
            true_alpha0=sigma**2 * (1.0 - alpha1 - gamma1),
            true_alphas=(alpha1,),
            true_gammas=(gamma1,),
            length=n_returns,
            seed=int(rng.integers(0, 2**63)),
            instrument_id=n_code,
        )
        # the manifest's columns, in order
        records.append(InstrumentRecord(
            f"Firm {i:02d}", str(600100 + i), n_code, _INDUSTRIES[i % len(_INDUSTRIES)],
            float(rng.uniform(2e9, 2.4e11)), dates[event_idx].item(), dates[0].item(), f"prices_{n_code}.csv",
        ))

    def prices(rec: InstrumentRecord) -> PriceSeries:
        event_idx, sim_config = firms[rec.n_code]
        returns = simulate_garch(sim_config, loc_ret, us_ret).values.copy()
        returns[event_idx - 1] += effect
        try:
            return PriceSeries(rec.n_code, dates, _prices_from_returns(50.0, returns))
        except NonPositivePrice:
            raise ConfigError(
                f"firm {rec.n_code}'s simulated closes leave the floating-point range "
                f"(effect = {effect!r}, days = {n_days})"
            ) from None

    return records, local_index, us_index, prices


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
        changes["max_p"], changes["max_q"] = _parse_ints(args.max_lags, 2, "--max-lags")
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
