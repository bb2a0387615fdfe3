"""End-to-end fault injection: a damaged bundle ends `validate` and `event-study` cleanly.

Each example damages one file of a seeded 3-firm bundle: it deletes,
duplicates, swaps or truncates lines, puts a bad value in one field, or
adds a `[windows]` key to run.ini.  Both commands must then return 0, 1
or 2 with no traceback, and an `event-study` that returns 0 must have
written its four reports.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosslist.cli import generate_bundle, main

REPORTS = ("coefficients.csv", "event.csv", "variance.csv", "summary.json")
WINDOW_KEYS = ("estimation", "event", "pre_var", "post_var")
BAD_VALUES = (
    "", " ", "nan", "inf", "-inf", "1e400", "0", "-1", "abc", "2006-02-30",
    "0001-01-01", "9999-12-31", '"', "1,5",
)


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    """The text of every file of a 3-firm, 300-day bundle, run at --max-lags 1,1."""
    out = tmp_path_factory.mktemp("bundle")
    generate_bundle(out, 3, 300, 0.0, 5)
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}


@st.composite
def mutations(draw, files):
    """One damaged copy of `files`: (file name, its new text)."""
    name = draw(st.sampled_from(sorted(files)))
    text = files[name]
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(("delete", "duplicate", "swap", "truncate", "value", "window")))
    if kind == "window":
        # mostly ordered ranges, so that valid windows reach the study's coverage check
        lo = draw(st.integers(-250, 250))
        hi = lo + draw(st.integers(-20, 300))
        key = draw(st.sampled_from(WINDOW_KEYS))
        return "run.ini", files["run.ini"] + f"\n[windows]\n{key} = {lo},{hi}\n"
    if kind == "truncate":
        return name, text[: draw(st.integers(0, len(text)))]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        cells = lines[i].rstrip("\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_VALUES))
        lines[i] = ",".join(cells) + "\n"
    return name, "".join(lines)


def run(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def test_damaged_bundle_ends_cleanly(bundle_files):
    @settings(max_examples=100, deadline=None)
    @given(mutations(bundle_files))
    def check(mutation):
        name, text = mutation
        # a directory per example: a function-scoped tmp_path would be shared by all of them
        with tempfile.TemporaryDirectory() as tmp:
            bundle = Path(tmp)
            for file_name, body in bundle_files.items():
                (bundle / file_name).write_text(text if file_name == name else body, encoding="utf-8")
            config = str(bundle / "run.ini")
            for argv in (["validate", "--config", config],
                         ["event-study", "--config", config, "--out", str(bundle / "es")]):
                code, stderr = run(argv)
                assert code in (0, 1, 2), (argv[0], code, stderr)
                assert "Traceback" not in stderr, stderr
            if code == 0:
                assert all((bundle / "es" / report).is_file() for report in REPORTS)

    check()
