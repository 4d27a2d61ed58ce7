"""What importing the package and running the CLI loads: numpy only for
``verify``, ``configparser`` only for a ``--config`` file, no
``dataclasses`` and no ``mpslab.pl`` at all, no ``mpslab.ote`` for ``mps``,
no ``json`` for ``dist``,
and every lazy export the object its module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpslab
from conftest import ticks_from_deltas, zigzag_levels
from mpslab import PRESETS, serialize_ticks

SRC = Path(__file__).resolve().parents[1] / "src"

_GUARD = """
import sys
import mpslab.cli as cli

def loaded(step, numpy=False, config=False):
    assert ("numpy" in sys.modules) == numpy, f"numpy loaded: {step}"
    # numpy imports inspect itself
    unwanted = ["dataclasses"] + ["configparser"] * (not config) + ["inspect"] * (not numpy)
    assert not set(unwanted) & set(sys.modules), f"{set(unwanted) & set(sys.modules)}: {step}"
    # no subcommand calls the pl family, so mpslab.pl loads only when asked for
    assert "mpslab.pl" not in sys.modules, f"mpslab.pl loaded: {step}"

cli.build_parser()
loaded("import mpslab.cli; build_parser()")
# dist writes its json rows from a template
assert cli.main(["dist", "--W", "1", "--n", "4", "--format", "json"]) == 0
assert "json" not in sys.modules, "json loaded: dist --format json"
import mpslab
assert mpslab.ingest.parse_ticks and "mpslab.ote" not in sys.modules
loaded("mpslab.ingest")
ticks, samples, config, out = sys.argv[1:5]
ote = ["ote", "--fc", "49.99", "--cost", "4.68", ticks]
steps = [["counts", "--W", "1", "--n", "3"], ["dist", "--W", "1", "--n", "4"],
         ["magma-table", "--W", "2"], ["rank", "--n", "5"],
         ["mps", "--cost", "5", "--prices", "2369.50,2369.75,2370.00"],
         ["mps", "--cost", "4.68", "--W", "2", ticks], ote,
         ["pattern", "--fc", "49.99", "--cost", "4.68", ticks], ["stats", samples]]
for argv in steps:
    assert cli.main(argv + ["--out", out]) == 0, argv
    loaded(argv[0])
    # mps runs the trade scan of mpslab.mps without loading mpslab.ote
    assert argv[0] != "mps" or "mpslab.ote" not in sys.modules, f"mpslab.ote loaded: {argv}"
assert cli.main(ote + ["--contract", "NW", "--config", config, "--out", out]) == 0
loaded("ote --config", config=True)
# a budget under the smallest universe is refused before numpy loads
assert cli.main(["verify", "--max-universe", "2", "--out", out]) == 1
loaded("verify --max-universe 2", config=True)
assert cli.main(["verify", "--max-universe", "100", "--out", out]) == 0
loaded("verify", numpy=True, config=True)
import mpslab.pl
assert mpslab.pl is sys.modules["mpslab.pl"].pl, "mpslab.pl is not the function"
"""


def test_only_verify_loads_numpy(tmp_path):
    ticks = ticks_from_deltas(zigzag_levels([0, 8, 0, 8, 0, 8, 0]), PRESETS["ES"])
    path = tmp_path / "ticks.tsv"
    path.write_text(serialize_ticks(ticks))
    samples = tmp_path / "samples.txt"
    samples.write_text("1.5\n2\n")
    config = tmp_path / "contracts.ini"
    config.write_text("[NW]\nk = 50\ndelta = 0.25\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _GUARD, str(path), str(samples), str(config),
                           str(tmp_path / "out.txt")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_exports_are_the_objects_of_their_modules():
    for name, module in mpslab._MODULE_OF.items():
        assert getattr(mpslab, name) is getattr(importlib.import_module(f"mpslab.{module}"), name)
    assert mpslab.BudgetExceeded is mpslab.oracle.BudgetExceeded
    for module in set(mpslab._EXPORTS) - {"pl"}:
        assert getattr(mpslab, module) is sys.modules[f"mpslab.{module}"]
    assert set(dir(mpslab)) >= set(mpslab._MODULE_OF)
    submodule = importlib.import_module("mpslab.pl")
    assert mpslab.pl is submodule.pl and callable(mpslab.pl)
    with pytest.raises(AttributeError):
        mpslab.no_such_name
