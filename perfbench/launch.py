"""Child process for one cold CLI invocation: `launch.py MARK_FILE ARGS...`.

Equivalent to `python -m crosslist.cli ARGS...`, except that it writes the
CLOCK_MONOTONIC time at which `crosslist.cli` finished importing to
MARK_FILE, so the parent can split wall time into set-up and work.
"""

import sys
import time
from pathlib import Path

import crosslist.cli

mark = time.monotonic()
expected_src = Path(__file__).resolve().parent.parent / "src"
if expected_src not in Path(crosslist.cli.__file__).resolve().parents:
    sys.exit(f"crosslist was imported from {crosslist.cli.__file__}, not from {expected_src}")
Path(sys.argv[1]).write_text(repr(mark), encoding="utf-8")
sys.exit(crosslist.cli.main(sys.argv[2:]))
