"""Property tests: every loader, fed arbitrary input, either returns or raises CrosslistError.

Two kinds of input per loader: arbitrary bytes, and a CSV with the right
header whose rows mix cells valid for their column with arbitrary ones, so
that rows get past the first checks and reach the later ones (duplicate
codes, repeated or unsorted dates, non-positive or non-finite numbers).
"""

import csv
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosslist.errors import CrosslistError
from crosslist.market_data import (
    FX_COLUMNS,
    MANIFEST_COLUMNS,
    PRICE_COLUMNS,
    RISK_FREE_COLUMNS,
    load_fx,
    load_manifest,
    load_prices,
    load_risk_free,
)

LOADERS = {
    "manifest": (load_manifest, MANIFEST_COLUMNS),
    "prices": (load_prices, PRICE_COLUMNS),
    "fx": (load_fx, FX_COLUMNS),
    "risk_free": (load_risk_free, RISK_FREE_COLUMNS),
}
NUMERIC_COLUMNS = {"close", "rate", "annual_yield_pct", "market_cap_usd"}

PROPERTY = settings(max_examples=60, deadline=None)

# UTF-8 cannot encode lone surrogates, so the written file could not hold them
arbitrary = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
    st.floats().map(repr),
    st.floats().map(lambda v: repr(v).replace(".", ",")),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "0", "-1", "2006-02-30"]),
)
# a ten-day range, so repeated and out-of-order dates are common
valid = {
    "date": st.dates(date(2006, 1, 1), date(2006, 1, 10)).map(date.isoformat),
    "number": st.floats(1e-6, 1e12).map(repr),
    "name": st.sampled_from(["A", "B", "prices_A.csv"]),
}


def _cell(column: str):
    kind = "date" if "date" in column else "number" if column in NUMERIC_COLUMNS else "name"
    return st.one_of(valid[kind], valid[kind], valid[kind], arbitrary)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("loader_properties")


def _load_or_crosslist_error(loader, path: Path) -> None:
    try:
        loader(path)
    except CrosslistError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_arbitrary_bytes(work, kind):
    loader, _ = LOADERS[kind]
    path = work / f"bytes_{kind}.csv"

    @PROPERTY
    @given(data=st.binary(max_size=512))
    def check(data):
        path.write_bytes(data)
        _load_or_crosslist_error(loader, path)

    check()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_well_formed_csv_arbitrary_cells(work, kind):
    loader, columns = LOADERS[kind]
    path = work / f"cells_{kind}.csv"
    rows = st.lists(
        st.one_of(
            st.tuples(*[_cell(c) for c in columns]),
            st.lists(arbitrary, min_size=len(columns) - 1, max_size=len(columns) + 1),
        ),
        max_size=6,
    )

    @PROPERTY
    @given(rows=rows)
    def check(rows):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        _load_or_crosslist_error(loader, path)

    check()
