"""Outside-in tracing of crosslist's layers, from the benchmark's own code.

`Tracer.install` replaces each target function with a timing wrapper at
every `crosslist.*` module attribute bound to the same object, so calls
through `from .x import f` names are caught as well as `module.f` calls.
Spans stay in memory; a span's self time is its duration minus the time
covered by the spans it caused.  `layer_metrics` turns the spans and the
counts observed at the same boundaries into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import re
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class TraceError(Exception):
    """A target is missing, or did not fire on a workload that must call it."""


def _rows(result) -> int:
    return len(result.dates) if hasattr(result, "dates") else len(result)


def _observe_align(counts, args, kwargs, panel) -> None:
    series = args[0] if args else kwargs["series"]
    kept = len(panel.common_dates)
    counts["dates_dropped"] += sum(len(s) - kept for s in series)


def _observe_minimize(counts, args, kwargs, res) -> None:
    method = str(kwargs.get("method", "default")).lower().replace("-", "_")
    counts["nfev"] += int(res.nfev)
    counts[f"nfev.{method}"] += int(res.nfev)
    counts["optimizer_success"] += bool(res.success)


def _observe_select_lags(counts, args, kwargs, result) -> None:
    # the |t| >= 1.96 gate select_lags applies; a fallback to (1, 1) fails it
    t = result[1].variance_lag_t_stats
    counts["qualified"] += bool(t.size == 0 or (np.all(np.isfinite(t)) and np.all(np.abs(t) >= 1.96)))


# (span name, module that defines it, attribute, observer of (counts, args, kwargs, result))
TARGETS = (
    ("load_manifest", "crosslist.market_data", "load_manifest",
     lambda c, a, k, r: c.update(rows_read=_rows(r))),
    ("load_prices", "crosslist.market_data", "load_prices",
     lambda c, a, k, r: c.update(rows_read=_rows(r))),
    ("load_fx", "crosslist.market_data", "load_fx",
     lambda c, a, k, r: c.update(rows_read=_rows(r))),
    ("load_risk_free", "crosslist.market_data", "load_risk_free",
     lambda c, a, k, r: c.update(rows_read=_rows(r))),
    ("align", "crosslist.market_data", "align", _observe_align),
    ("convert_to_usd", "crosslist.market_data", "convert_to_usd", None),
    ("build_event_frame", "crosslist.market_data", "build_event_frame", None),
    ("write_prices", "crosslist.market_data", "write_prices",
     lambda c, a, k, r: c.update(rows_written=len(a[0] if a else k["series"]))),
    ("select_lags", "crosslist.garch", "select_lags", _observe_select_lags),
    ("fit_garch_market_model", "crosslist.garch", "fit_garch_market_model",
     lambda c, a, k, r: c.update(converged=bool(r.converged))),
    ("minimize", "scipy.optimize", "minimize", _observe_minimize),
    ("simulate_garch", "crosslist.garch", "simulate_garch", None),
    ("ols_fit", "crosslist.linear_models", "ols_fit", None),
    ("diagnostics_report", "crosslist.linear_models", "diagnostics_report", None),
    ("durbin_watson", "crosslist.linear_models", "durbin_watson", None),
    ("breusch_godfrey", "crosslist.linear_models", "breusch_godfrey", None),
    ("study_firm", "crosslist.event_study", "study_firm", None),
    ("aggregate", "crosslist.event_study", "aggregate", None),
    ("variance_ratio_report", "crosslist.event_study", "variance_ratio_report", None),
    ("variance_f_test", "crosslist.stats_core", "variance_f_test", None),
    ("main", "crosslist.cli", "main", None),
)

# what each workload must call; a target that stays silent fails the traced run
MUST_FIRE = {
    "es-garch": (
        "load_manifest", "load_prices", "load_fx", "convert_to_usd", "align",
        "build_event_frame", "select_lags", "fit_garch_market_model", "minimize",
        "ols_fit", "diagnostics_report", "study_firm", "aggregate",
        "variance_ratio_report", "variance_f_test", "main",
    ),
    "validate-history": ("load_manifest", "load_prices", "load_fx", "load_risk_free", "align", "main"),
    "simulate-write": ("simulate_garch", "write_prices", "main"),
}

# per-layer time metrics: the sum of the self times of these spans
SELF_TIME_METRICS = {
    "market_data.load_s": ("load_manifest", "load_prices", "load_fx", "load_risk_free"),
    "market_data.align_s": ("align",),
    "market_data.convert_s": ("convert_to_usd",),
    "market_data.event_frame_s": ("build_event_frame",),
    "market_data.write_s": ("write_prices",),
    "garch.fit_self_s": ("fit_garch_market_model",),
    "garch.simulate_s": ("simulate_garch",),
    "linear_models.ols_s": ("ols_fit",),
    "linear_models.diagnostics_s": ("diagnostics_report", "durbin_watson", "breusch_godfrey"),
    "event_study.study_firm_self_s": ("study_firm",),
    "event_study.aggregate_s": ("aggregate",),
    "event_study.variance_report_s": ("variance_ratio_report",),
    "stats_core.f_test_s": ("variance_f_test",),
    "cli.self_s": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, time covered by child spans]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target; raises TraceError if one no longer exists."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "crosslist"]
        for name, module_name, attr, observe in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                raise TraceError(f"trace target {module_name}.{attr} no longer exists")
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, 0.0]
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][3] += span[2] - span[1]
                self.spans.append(span)
                self.calls[name] += 1
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def layer_metrics(self, workload: str) -> tuple[dict[str, float], dict[str, float]]:
        """(times in seconds, counts) for one traced run of `workload`."""
        silent = [name for name in MUST_FIRE[workload] if self.calls[name] == 0]
        if silent:
            raise TraceError(f"trace targets never fired on {workload}: {', '.join(silent)}")
        self_time: dict[str, float] = defaultdict(float)
        total_time: dict[str, float] = defaultdict(float)
        for name, start, end, covered in self.spans:
            self_time[name] += end - start - covered
            total_time[name] += end - start
        times = {metric: sum(self_time[n] for n in names) for metric, names in SELF_TIME_METRICS.items()}
        times["garch.select_lags_s"] = total_time["select_lags"]
        times["garch.optimizer_s"] = total_time["minimize"]
        times["trace.run_s"] = total_time["main"]

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        calls, counts = self.calls, self.counts
        fits = calls["fit_garch_market_model"]
        firms = calls["study_firm"]
        tallies = {
            "market_data.rows_read": counts["rows_read"],
            "market_data.dates_dropped": counts["dates_dropped"],
            "market_data.rows_written": counts["rows_written"],
            "garch.fits_per_firm": ratio(fits, firms),
            "garch.nfev_per_fit": ratio(counts["nfev"], fits),
            "garch.nfev_per_fit.bfgs": ratio(counts["nfev.bfgs"], fits),
            "garch.nfev_per_fit.nelder_mead": ratio(counts["nfev.nelder_mead"], fits),
            "garch.optimizer_success_frac": ratio(counts["optimizer_success"], calls["minimize"]),
            "garch.converged_frac": ratio(counts["converged"], fits),
            "garch.qualified_frac": ratio(counts["qualified"], calls["select_lags"]),
            "linear_models.ols_calls_per_firm": ratio(calls["ols_fit"], firms),
        }
        return times, tallies


_IMPORTTIME_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_metrics(env: dict, cwd: str) -> dict[str, float]:
    """Self import time per package and the module count of a cold `import crosslist.cli`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import crosslist.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    by_package: Counter = Counter()
    modules = 0
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if match:
            modules += 1
            by_package[match.group(3).split(".")[0]] += int(match.group(1)) * 1e-6
    return {
        "import.scipy_s": by_package["scipy"],
        "import.numpy_s": by_package["numpy"],
        "import.crosslist_s": by_package["crosslist"],
        "import.modules": modules,
    }
