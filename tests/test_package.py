"""The package's public names, and the heap freeze that only the CLI runs."""

import crosslist

from .support import fresh_python

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
