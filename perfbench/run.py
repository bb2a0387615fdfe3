"""crosslist benchmark: cold CLI workloads end to end, or one traced run per layer.

    python3 perfbench/run.py --workload es-garch --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  `--trace 0` times repeated cold `crosslist` invocations, one
at a time, and reports end-to-end medians.  `--trace 1` alternates an
untraced cold invocation with an in-process run whose layers are timed
from outside, and reports per-layer metrics.  `--workload all` rotates
through every workload in turn.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads
from workloads import RunOutput, collect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150

UNITS = {"wall_s": "s", "setup_s": "s", "firms_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def invoke(argv: list[str], run_dir: Path) -> tuple[RunOutput, float, float, float]:
    """One cold CLI process: (output, wall s, setup s, peak RSS MB)."""
    run_dir.mkdir(parents=True)
    mark = run_dir / "setup.mark"
    with open(run_dir / "stdout", "w+", encoding="utf-8") as out, \
            open(run_dir / "stderr", "w+", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(mark), *argv],
            cwd=run_dir, env=child_env(), stdout=out, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if not mark.exists():
        raise BenchmarkError(f"`crosslist {' '.join(argv)}` did not start: {stderr.strip()[-500:]}")
    setup = float(mark.read_text(encoding="utf-8")) - start
    result = collect(run_dir, proc.returncode, stdout, stderr)
    return result, wall, setup, usage.ru_maxrss / 1024.0


class Session:
    """Repeated runs of one workload on one set of seeded inputs."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.work = work / workload.name
        self.expected = workload.prepare(self.work / "inputs", seed)
        self.ops = workload.operations(self.expected)
        self.reference: RunOutput | None = None
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.consistent = True

    def _account(self, run_dir: Path, result: RunOutput) -> None:
        """Check one run's outputs; every run must repeat the first run's bytes."""
        failed = self.workload.check(run_dir, result, self.expected)
        if self.reference is None:
            self.reference = result
        elif result != self.reference:
            failed = self.ops
        self.attempted += self.ops
        self.failed += failed

    def _run_dir(self, kind: str) -> Path:
        self.runs += 1
        return self.work / f"{kind}{self.runs}"


class TimedSession(Session):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.samples: dict[str, list[float]] = {name: [] for name in UNITS}

    def step(self) -> None:
        run_dir = self._run_dir("cold")
        result, wall, setup, rss = invoke(self.workload.argv(), run_dir)
        self._account(run_dir, result)
        shutil.rmtree(run_dir)
        self.samples["wall_s"].append(wall)
        self.samples["setup_s"].append(setup)
        self.samples["firms_per_s"].append(self.ops / (wall - setup))
        self.samples["peak_rss_mb"].append(rss)

    def metrics(self) -> dict[str, float]:
        return {name: statistics.median(values) for name, values in self.samples.items()}

    def describe(self) -> list[str]:
        lines = []
        for name, values in self.samples.items():
            line = f"{self.workload.name} {name}: median {statistics.median(values):.6g} {UNITS[name]} (n={len(values)})"
            tail = highest_percentile(values)
            if tail is not None:
                line += f", p{tail[0]:g} {tail[1]:.6g} {UNITS[name]}"
            lines.append(line)
        frac = self.failed / self.attempted if self.attempted else float("nan")
        lines.append(f"{self.workload.name} fail_frac: {frac:.6g} ({self.failed}/{self.attempted} operations)")
        return lines


class TracedSession(Session):
    """Untraced cold run, import profile and traced in-process run, repeated."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.samples: dict[str, list[float]] = {}
        self.tallies: dict[str, float] | None = None

    def _record(self, metrics: dict[str, float]) -> None:
        for name, value in metrics.items():
            self.samples.setdefault(name, []).append(value)

    def step(self) -> None:
        run_dir = self._run_dir("cold")
        result, wall, setup, _ = invoke(self.workload.argv(), run_dir)
        self._account(run_dir, result)
        shutil.rmtree(run_dir)
        self._record(tracing.import_metrics(child_env(), str(self.work)))

        run_dir = self._run_dir("traced")
        tracer = tracing.Tracer()
        result = run_in_process(self.workload.argv(), run_dir, tracer)
        self._account(run_dir, result)  # compared byte for byte with the untraced run
        shutil.rmtree(run_dir)
        times, tallies = tracer.layer_metrics(self.workload.name)
        if self.tallies is not None and tallies != self.tallies:
            self.consistent = False  # counts must repeat exactly on the same inputs
        self.tallies = tallies
        times["trace.overhead_frac"] = times["trace.run_s"] / (wall - setup) - 1.0
        self._record(times)

    def metrics(self) -> dict[str, float]:
        medians = {name: statistics.median(values) for name, values in self.samples.items()}
        return {**medians, **self.tallies}

    def describe(self) -> list[str]:
        return [f"{self.workload.name} traced runs: {self.runs // 2}, counts repeat: {self.consistent}"]


def run_in_process(argv: list[str], run_dir: Path, tracer: tracing.Tracer) -> RunOutput:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crosslist.cli

    if SRC not in Path(crosslist.cli.__file__).resolve().parents:
        raise tracing.TraceError(f"crosslist was imported from {crosslist.cli.__file__}, not {SRC}")
    run_dir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    tracer.install()
    try:
        os.chdir(run_dir)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            returncode = crosslist.cli.main(argv)
    finally:
        os.chdir(here)
        tracer.uninstall()
    return collect(run_dir, returncode, stdout.getvalue(), stderr.getvalue())


def highest_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p90/p99/p99.9 (nearest rank) with at least ten samples beyond it, if any."""
    n = len(values)
    best = None
    for p in (90.0, 99.0, 99.9):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            best = (p, sorted(values)[rank - 1])
    return best


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crosslist" / "cli.py").is_file():
        print(f"error: no crosslist sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    work = WORK / f"run-{os.getpid()}"
    session_type = TracedSession if args.trace else TimedSession
    try:
        sessions = [session_type(workloads.WORKLOADS[name], args.seed, work) for name in names]
        start = time.monotonic()
        durations: list[float] = []
        # at least two runs each, so that repeated runs are compared byte for byte;
        # no round starts that would be expected to end after --seconds
        while len(durations) < 2 or time.monotonic() - start + statistics.median(durations) <= args.seconds:
            round_start = time.monotonic()
            for k in range(len(sessions)):  # rotate the order every round
                sessions[(len(durations) + k) % len(sessions)].step()
            durations.append(time.monotonic() - round_start)
    except (BenchmarkError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    env["loadavg_end"] = os.getloadavg()
    print("# environment " + json.dumps(env, sort_keys=True))
    metrics = {}
    for session in sessions:
        for line in session.describe():
            print(line)
        prefix = f"{session.workload.name}." if len(sessions) > 1 else ""
        for name, value in session.metrics().items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    correct = failed == 0 and all(s.consistent for s in sessions)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
