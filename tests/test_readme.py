"""The README's library example runs as written on a simulated bundle."""

import re
from pathlib import Path

import numpy as np

from crosslist.cli import load_config, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs_on_a_simulated_bundle(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    bundle = tmp_path / "bundle"
    assert main(["simulate", "--out", str(bundle), "--seed", "42"]) == 0
    monkeypatch.chdir(bundle)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    panel, day0, firm = namespace["panel"], namespace["day0"], namespace["firm"]
    assert panel.common_dates[day0] >= np.datetime64(firm.us_listing_date, "D")
    assert namespace["result"].firm_id == "F00"
    study, records = namespace["study"], namespace["records"]
    assert len(study.firms) + len(study.skipped) == len(records)
    # the in-memory bundle is the one the CLI wrote, so the two studies agree
    assert np.array_equal(namespace["in_memory"].panel.z, namespace["z"])
    # and the in-memory study's reports are the command's, byte for byte
    assert main(["event-study", "--config", "run.ini", "--out", "cli-reports"]) == 0
    for name in ("coefficients.csv", "event.csv", "variance.csv", "summary.json"):
        assert (bundle / "memory-reports" / name).read_bytes() == (bundle / "cli-reports" / name).read_bytes()


def test_config_block_loads(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    (tmp_path / "run.ini").write_text(block, encoding="utf-8")
    config = load_config(tmp_path / "run.ini")
    assert config.fx_path.name == "fx.csv"
    assert config.period == "monthly"
    assert config.sim_effect == 0.0


def test_semicolon_without_space_is_part_of_the_value(tmp_path):
    (tmp_path / "run.ini").write_text("[run]\noutput_dir = out;1\n", encoding="utf-8")
    assert load_config(tmp_path / "run.ini").output_dir.name == "out;1"
