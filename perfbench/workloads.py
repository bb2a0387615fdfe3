"""The three benchmark workloads: their inputs, command lines and output checks.

Each workload runs one `crosslist` command from a run directory that holds
nothing but its outputs; the inputs sit in `../inputs`.  An operation is
one firm (one firm file for `simulate-write`), and `check` returns how
many of a run's operations failed: a wrong or missing per-firm answer
fails that firm, a non-zero exit or a wrong panel-level answer fails them
all.  Checks read files only and run outside every timed region.  That
repeated runs with one seed write identical bytes is checked by the
caller, for every workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import inputs

CONFIG = "../inputs/run.ini"
OUT = "out"
BETA_TOLERANCE = 0.15  # on the cross-firm mean beta; about 5 standard errors at T = 91


@dataclass(frozen=True)
class RunOutput:
    """What one invocation left behind, read before its run directory is removed."""

    returncode: int
    stdout: str
    stderr: str
    files: dict[str, str]  # name -> sha256 of every file under OUT


def collect(run_dir: Path, returncode: int, stdout: str, stderr: str) -> RunOutput:
    out = run_dir / OUT
    files = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return RunOutput(returncode, stdout, stderr, files)


class EsGarch:
    """`event-study --max-lags 2,2`: four candidate GARCH specs per firm at T = 91."""

    name = "es-garch"
    n_firms, n_days = 12, 600

    def prepare(self, inputs_dir: Path, seed: int) -> dict:
        return inputs.generate_bundle(inputs_dir, seed, self.n_firms, self.n_days, effect=0.06, plant_skips=True)

    def argv(self) -> list[str]:
        return ["event-study", "--config", CONFIG, "--out", OUT, "--max-lags", "2,2"]

    def operations(self, expected: dict) -> int:
        return len(expected["firms"])

    def check(self, run_dir: Path, result: RunOutput, expected: dict) -> int:
        firms = expected["firms"]
        try:
            summary = json.loads((run_dir / OUT / "summary.json").read_text(encoding="utf-8"))
            with open(run_dir / OUT / "coefficients.csv", encoding="utf-8", newline="") as f:
                coefs = {row["code"]: row for row in csv.DictReader(f)}
        except (OSError, ValueError, KeyError):
            return len(firms)
        want_skipped = set(expected["skipped"])
        analyzed = [f for f in firms if f["code"] not in want_skipped]
        if result.returncode != 0 or not summary.get("day0_significant_5pct") or not analyzed:
            return len(firms)
        try:
            for column, truth in (("r_sse", "beta_loc"), ("r_nyse", "beta_us")):
                fitted = sum(float(coefs[f["code"]][column]) for f in analyzed) / len(analyzed)
                true = sum(f[truth] for f in analyzed) / len(analyzed)
                if not abs(fitted - true) <= BETA_TOLERANCE:
                    return len(firms)
        except (KeyError, ValueError):
            return len(firms)
        skipped = set(summary.get("skipped", {}))
        return sum((f["code"] in skipped) != (f["code"] in want_skipped) for f in firms)


class ValidateHistory:
    """`validate` on long histories: CSV parsing and calendar alignment, no model fits."""

    name = "validate-history"
    n_firms, n_days = 60, 6000
    _LINE = re.compile(r"^(prices|alignment)\[(\w+)\]: (\d+) (?:rows|common dates \(lost (\d+)\))")

    def prepare(self, inputs_dir: Path, seed: int) -> dict:
        return inputs.generate_bundle(inputs_dir, seed, self.n_firms, self.n_days, effect=0.0, plant_skips=False)

    def argv(self) -> list[str]:
        return ["validate", "--config", CONFIG]

    def operations(self, expected: dict) -> int:
        return len(expected["firms"])

    def check(self, run_dir: Path, result: RunOutput, expected: dict) -> int:
        firms = expected["firms"]
        if result.returncode != 0 or "validation ok" not in result.stdout.splitlines():
            return len(firms)
        seen: dict[str, dict[str, int]] = {}
        for line in result.stdout.splitlines():
            match = self._LINE.match(line)
            if match:
                kind, code, count, lost = match.groups()
                entry = seen.setdefault(code, {})
                if kind == "prices":
                    entry["rows"] = int(count)
                else:
                    entry["common"], entry["lost"] = int(count), int(lost)
        return sum(seen.get(f["code"]) != {k: f[k] for k in ("rows", "common", "lost")} for f in firms)


class SimulateWrite:
    """`simulate` of a large bundle: the GARCH simulator and the price writer."""

    name = "simulate-write"
    n_firms, n_days = 100, 5000

    def prepare(self, inputs_dir: Path, seed: int) -> dict:
        return inputs.write_simulate_config(inputs_dir, seed, self.n_firms, self.n_days)

    def argv(self) -> list[str]:
        return ["simulate", "--config", CONFIG, "--out", OUT]

    def operations(self, expected: dict) -> int:
        return expected["n_firms"]

    def check(self, run_dir: Path, result: RunOutput, expected: dict) -> int:
        n_firms, n_days = expected["n_firms"], expected["n_days"]
        if result.returncode != 0:
            return n_firms
        try:
            with open(run_dir / OUT / "manifest.csv", encoding="utf-8", newline="") as f:
                rows = list(csv.DictReader(f))
        except OSError:
            return n_firms
        if len(rows) != n_firms or [r.get("n_code") for r in rows] != [f"F{i:02d}" for i in range(n_firms)]:
            return n_firms
        failed = 0
        for row in rows:
            path = run_dir / OUT / row["price_file"]
            try:
                with open(path, encoding="utf-8") as f:
                    lines = f.read().splitlines()
            except OSError:
                failed += 1
                continue
            failed += lines[0] != "date,close" or len(lines) != n_days + 1
        return failed


WORKLOADS = {w.name: w for w in (EsGarch(), ValidateHistory(), SimulateWrite())}
