"""The package's public names, imported on first use, and the cold start that only the CLI runs."""

import sys

import pytest

import crosslist
from crosslist.cli import BLAS_THREAD_VARIABLES

from .support import fresh_python

LINUX_ONLY = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")

# the process's threads and state after the CLI's imports, and how many CPUs OpenBLAS may use
CLI_COLD_START = """
import gc, os
before = dict(os.environ)
import crosslist.cli
print(len(os.listdir("/proc/self/task")), dict(os.environ) == before, gc.isenabled(),
      gc.get_freeze_count() > 0, os.environ.get("OPENBLAS_NUM_THREADS"), len(os.sched_getaffinity(0)))
"""

LIBRARY_STUDY = """
import gc, sys, weakref
from pathlib import Path

class Node:
    pass

cycle = Node()
cycle.self = cycle
collected = weakref.ref(cycle)
import crosslist as cl

records, sse, nyse, prices = cl.simulate_bundle(3, 300, 0.0, 5)
study = cl.run_event_study(records, prices, sse, nyse, None, cl.EventWindows())
cl.write_event_reports(study, Path(sys.argv[1]))
del cycle
gc.collect()
print(collected() is None, gc.get_freeze_count(), "crosslist.cli" in sys.modules)
"""


def test_every_exported_name_resolves_once():
    names = crosslist.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(crosslist, name)] == []


def test_dir_lists_every_exported_name():
    assert set(crosslist.__all__) <= set(dir(crosslist))


def test_library_use_never_freezes_the_heap(tmp_path):
    # a cycle alive while the package is imported and used is still collected
    # once dropped, which a `gc.freeze()` would prevent
    out = fresh_python(["-c", LIBRARY_STUDY, str(tmp_path / "reports")])
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.split() == ["True", "0", "False"]
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == [
        "coefficients.csv", "event.csv", "summary.json", "variance.csv",
    ]
    # the command line keeps its freeze, which saves exit teardown
    out = fresh_python(["-c", "import gc, crosslist; n = gc.get_freeze_count(); "
                              "import crosslist.cli; print(n, gc.get_freeze_count() > 0)"])
    assert (out.returncode, out.stdout.split()) == (0, ["0", "True"])


def test_import_loads_no_submodule():
    out = fresh_python(["-c", "import sys, crosslist; "
                              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('crosslist', 'numpy')))"])
    assert (out.returncode, out.stdout.strip()) == (0, "['crosslist']")


def test_loading_prices_imports_no_scipy(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,close\n2007-01-08,1.5\n", encoding="utf-8")
    code = ("import sys, crosslist; series = crosslist.load_prices(sys.argv[1]); "
            "print(len(series), [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = fresh_python(["-c", code, str(path)])
    assert (out.returncode, out.stderr, out.stdout.strip()) == (0, "", "1 []")


@LINUX_ONLY
def test_cli_import_runs_one_blas_thread_and_restores_the_process_state():
    out = fresh_python(["-c", CLI_COLD_START], environ=dict.fromkeys(BLAS_THREAD_VARIABLES))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.split()[:5] == ["1", "True", "True", "True", "None"]


@LINUX_ONLY
def test_cli_import_keeps_the_users_blas_thread_count():
    environ = {**dict.fromkeys(BLAS_THREAD_VARIABLES), "OPENBLAS_NUM_THREADS": "2"}
    out = fresh_python(["-c", CLI_COLD_START], environ=environ)
    assert (out.returncode, out.stderr) == (0, "")
    threads, unchanged, collecting, frozen, value, cpus = out.stdout.split()
    assert (unchanged, collecting, frozen, value) == ("True", "True", "True", "2")
    if int(cpus) >= 2:
        assert int(threads) > 1
