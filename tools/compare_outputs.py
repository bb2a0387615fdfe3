"""Check that the working tree writes the same bytes as a git revision.

Usage: python tools/compare_outputs.py REV

Extracts REV with `git archive` into a temporary directory, then runs
one matrix of `python -m crosslist.cli` commands on that tree and on the
working tree, each with `PYTHONPATH=<tree>/src`:

- `simulate --seed S` for S in 1, 3, 4 and 5, then `validate` and
  `event-study` at `--max-lags` 1,1 and 2,2 on each bundle;
- the same on a 100-firm, 5,000-day seed-1 bundle (the simulate-write
  benchmark's config);
- `event-study --max-lags 2,2` on the es-garch benchmark bundles for
  seeds 1, 3 and 4;
- `capm` on the seed-3 bundle, with a flat 3% yield over the index dates
  as both risk-free series, as CI's smoke runs it.

The benchmark inputs are written once, by `perfbench/inputs.py` of the
working tree, and shared by both runs.  Every file the commands write is
compared by sha256, and each command's exit code, stdout and stderr with
the run, input and tree paths normalised.  Prints what differs, and each
command that exits non-zero at REV; exits 1 if anything differs, else 0.
A differing `.csv` or `.json` file's line also gives the largest relative
change |a - b| / max(|a|, |b|) over the numbers at matching positions
(cells of a CSV, leaves of a JSON document), and whether any non-numeric
cell (a flag, a skip reason) or the file's shape differs.  The temporary
directory is removed either way.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIM_SEEDS = (1, 3, 4, 5)
ES_GARCH_SEEDS = (1, 3, 4)
CAPM_INI = (
    "[data]\nlocal_index = sse.csv\nus_index = nyse.csv\nlocal_risk_free = rf.csv\nus_risk_free = rf.csv\n\n"
    "[capm]\na_prices = prices_F00.csv\nn_prices = prices_F01.csv\n"
)


def write_inputs(inputs: Path) -> None:
    """The benchmark bundles both trees read, from the working tree's `perfbench/inputs.py`."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import inputs as bench_inputs

    for seed in ES_GARCH_SEEDS:
        bench_inputs.generate_bundle(inputs / f"es-garch-{seed}", seed, 12, 600, effect=0.06, plant_skips=True)
    bench_inputs.write_simulate_config(inputs / "big", 1, 100, 5000)


def write_capm_inputs(bundle: Path) -> None:
    """rf.csv at a flat 3% on the local index's dates, and a capm config on the first two firms."""
    dates = [line.split(",", 1)[0] for line in (bundle / "sse.csv").read_text(encoding="utf-8").splitlines()[1:]]
    (bundle / "rf.csv").write_text("date,annual_yield_pct\n" + "".join(f"{d},3.0\n" for d in dates), encoding="utf-8")
    (bundle / "capm.ini").write_text(CAPM_INI, encoding="utf-8")


def run_matrix(tree: Path, run: Path, inputs: Path) -> dict[str, tuple[int, str, str]]:
    """Run every command on `tree`'s source in `run`; (exit code, stdout, stderr) by command."""
    run.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    results = {}

    def normalised(text: str) -> str:
        return text.replace(str(run), "<run>").replace(str(inputs), "<inputs>").replace(str(tree), "<tree>")

    def cli(*args: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "crosslist.cli", *args],
            cwd=run, env=env, capture_output=True, text=True,
        )
        results[" ".join(args)] = (proc.returncode, normalised(proc.stdout), normalised(proc.stderr))

    bundles = []
    for seed in SIM_SEEDS:
        cli("simulate", "--out", f"sim-{seed}", "--seed", str(seed))
        bundles.append(f"sim-{seed}")
    cli("simulate", "--config", str(inputs / "big" / "run.ini"), "--out", "sim-big")
    bundles.append("sim-big")
    for bundle in bundles:
        config = f"{bundle}/run.ini"
        cli("validate", "--config", config)
        for lags in ("1,1", "2,2"):
            cli("event-study", "--config", config, "--out", f"{bundle}-es-{lags[0]}{lags[2]}", "--max-lags", lags)
    for seed in ES_GARCH_SEEDS:
        config = str(inputs / f"es-garch-{seed}" / "run.ini")
        cli("event-study", "--config", config, "--out", f"es-garch-{seed}", "--max-lags", "2,2")
    if (run / "sim-3" / "sse.csv").exists():
        write_capm_inputs(run / "sim-3")
        cli("capm", "--config", "sim-3/capm.ini", "--out", "capm-3")
    return results


def digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def cells(path: Path) -> dict:
    """A CSV's cells by (row, column), or a JSON document's leaves by their key path."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return {(i, j): cell for i, row in enumerate(csv.reader(io.StringIO(text))) for j, cell in enumerate(row)}
    out = {}

    def walk(node, at):
        if isinstance(node, (dict, list)) and node:
            for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(value, at + (key,))
        else:
            out[at] = node

    walk(json.loads(text), ())
    return out


def as_number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def how_far(base: Path, new: Path) -> str:
    """How far a differing report moved: its largest relative change, and whether text or shape moved."""
    if base.suffix not in (".csv", ".json"):
        return ""
    old, cur = cells(base), cells(new)
    worst, numbers, text_moved = 0.0, 0, False
    for at in old.keys() & cur.keys():
        a, b = as_number(old[at]), as_number(cur[at])
        if a is None or b is None:
            text_moved |= old[at] != cur[at]
        else:
            numbers += 1
            worst = max(worst, relative_change(a, b))
    return (
        f" (largest relative change {worst:.2g} over {numbers} numbers; "
        f"non-numeric cells {'differ' if text_moved else 'equal'}; "
        f"{'shape differs' if old.keys() != cur.keys() else 'same shape'})"
    )


def differences(base: dict, new: dict, what: str, detail=lambda key: "") -> list[str]:
    out = []
    for key in sorted(base.keys() | new.keys()):
        if key not in new:
            out.append(f"{what} {key}: only at the revision")
        elif key not in base:
            out.append(f"{what} {key}: only in the working tree")
        elif base[key] != new[key]:
            out.append(f"{what} {key}: differs{detail(key)}")
    return out


def command_differences(base: dict, new: dict) -> list[str]:
    out = differences({k: v[0] for k, v in base.items()}, {k: v[0] for k, v in new.items()}, "exit code of")
    for i, stream in ((1, "stdout"), (2, "stderr")):
        out += differences({k: v[i] for k, v in base.items()}, {k: v[i] for k, v in new.items()}, f"{stream} of")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    tmp = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    tree = tmp / "rev"
    try:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True, stdout=subprocess.PIPE).stdout
        tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        inputs, run_rev, run_work = tmp / "inputs", tmp / "run-rev", tmp / "run-work"
        write_inputs(inputs)
        base = run_matrix(tree, run_rev, inputs)
        new = run_matrix(REPO, run_work, inputs)
        files = digests(run_rev)
        found = command_differences(base, new) + differences(
            files, digests(run_work), "file", lambda key: how_far(run_rev / key, run_work / key)
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in found:
        print(line)
    for command, (code, _, _) in base.items():
        if code:
            print(f"note: {command} exits {code} at {rev}")
    verdict = f"{len(found)} difference(s)" if found else "identical"
    print(f"{len(base)} commands and {len(files)} files compared with {rev}: {verdict}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
