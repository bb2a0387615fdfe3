"""Cross-listing analysis toolkit.

Loads and aligns dual-listing market data, estimates CAPM and two-index
market models (OLS or GARCH maximum likelihood), and runs listing-date
event studies with standardized abnormal returns and variance-ratio tests.

Every public name is imported from its submodule on first use (PEP 562),
so `import crosslist` loads no submodule: `crosslist.load_prices` loads
numpy and no scipy module, and `import crosslist.cli` runs the command
line's first lines before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "event_study": (
        "EventPanelResult",
        "EventStudyResult",
        "EventWindows",
        "FirmEventResult",
        "OffsetRange",
        "VarianceRatioRow",
        "abnormal_returns",
        "aggregate",
        "cap_weights",
        "run_event_study",
        "standardize",
        "study_firm",
        "variance_ratio_report",
        "write_event_reports",
    ),
    "garch": (
        "GarchFit",
        "GarchSimConfig",
        "GarchSpec",
        "fit_garch_market_model",
        "select_lags",
        "simulate_bundle",
        "simulate_garch",
        "unconditional_variance",
    ),
    "linear_models": (
        "BreuschGodfreyResult",
        "DiagnosticsReport",
        "OlsFit",
        "breusch_godfrey",
        "capm_expected_return",
        "classify_durbin_watson",
        "diagnostics_report",
        "durbin_watson",
        "ols_fit",
        "prediction_se",
    ),
    "market_data": (
        "AlignedPanel",
        "InstrumentRecord",
        "PriceSeries",
        "RateSeries",
        "align",
        "build_event_frame",
        "convert_to_usd",
        "load_fx",
        "load_manifest",
        "load_prices",
        "load_risk_free",
        "write_manifest",
        "write_prices",
    ),
    "stats_core": (
        "FTestResult",
        "variance_f_test",
    ),
}
_SUBMODULES = ("errors", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["errors", *_HOME])


def __getattr__(name: str):
    """Import a public name's submodule on first use, and keep the name."""
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
