"""The benchmark harness's layer hooks still find the program's public names.

``perfbench/layers.py`` times each layer by swapping public functions such
as ``ingest.sessionize`` for wrappers, and reads its counts from their
arguments and results.  A rename or a signature change there would leave a
layer's metrics null or broken without failing any run, so this runs the
harness on a small two-session ES file and checks what it reports.  The
harness file is only read: no bytecode is written next to it.
"""

import importlib.util
import sys
from datetime import datetime
from pathlib import Path

import pytest

import mpslab.cli
from conftest import ticks_from_deltas, zigzag_levels
from mpslab import PRESETS, Tick, distribution, ingest, mps, oracle, ote, serialize_ticks, verify

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def _two_session_file(path: Path) -> int:
    """Two ES sessions of zigzag trades, one indicative tick in the first,
    and two trades in the 15:15-17:00 gap between them; returns the line count."""
    es = PRESETS["ES"]
    levels = zigzag_levels([0, 8, 0, 8, 0, 8, 0, 8, 0])
    first = ticks_from_deltas(levels, es, start=datetime(2017, 4, 10, 9, 0, 0))
    second = ticks_from_deltas(levels, es, start=datetime(2017, 4, 11, 9, 0, 0))
    indicative = Tick(datetime(2017, 4, 10, 12, 0, 0), "2250.25", 0)
    gap = [Tick(datetime(2017, 4, 10, 15, 30, 0), "2251", 2),
           Tick(datetime(2017, 4, 10, 16, 0, 0), "2250.75", 1)]
    ticks = first + [indicative] + gap + second
    path.write_text(serialize_ticks(ticks))
    return len(ticks)


@pytest.mark.parametrize("command", [
    ["ote", "--contract", "ES", "--fc", "49.99", "--cost", "4.68"],
    ["pattern", "--contract", "ES", "--fc", "12.49", "--cost", "4.68", "--eq-tol", "1"],
])
def test_traced_run_finds_every_hook_and_keeps_stdout(layers, tmp_path, command):
    path = tmp_path / "ticks.tsv"
    lines = _two_session_file(path)
    modules = {"cli": mpslab.cli, "ingest": ingest, "ote": ote, "mps": mps,
               "oracle": oracle, "distribution": distribution, "verify": verify}
    rec, plain, traced, code_plain, code_traced, plain_s = \
        layers.traced_pair(modules, command + [str(path)])
    assert rec.missing == set() and rec.broken == set(), rec.notes
    assert (code_plain, code_traced) == (0, 0)
    assert traced == plain != ""
    metrics = layers.layer_metrics(rec, lines, traced, plain_s)
    assert metrics["ingest.sessions"] == 2
    assert metrics["ingest.out_of_session_dropped"] == 2
    assert metrics["ingest.indicative_dropped"] == 1
    assert metrics["ingest.lines_read"] == lines
    assert metrics["ote.records"] > 0
    # the wrappers are gone again after the traced run
    assert ingest.sessionize.__module__ == "mpslab.ingest"
