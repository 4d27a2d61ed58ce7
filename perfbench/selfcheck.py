"""Smoke test of the whole harness on tiny inputs (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs run.py untraced once and traced twice on the
default seed at the tiny scale, and fails unless:

- each result line has exactly the keys correct, attempted, failed and
  metrics, is correct, and emits every metric name and unit that
  BENCHMARK.json lists;
- the per-layer counts repeat exactly across the two traced runs;
- the tick workloads drop at least one indicative and one out-of-session
  tick;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result(workload: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path(SPEC["command"][1])), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def metrics_of(workload: str, trace: int) -> dict:
    code, lines = result(workload, trace)
    assert code == 0, f"{workload} trace={trace}: exit {code}"
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] and last["failed"] == 0, lines[-2]
    assert last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metric names or units differ"
    return {name: m["value"] for name, m in last["metrics"].items()}


def main() -> int:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.UNITS)
    for workload in run.WORKLOADS:
        e2e = metrics_of(workload, 0)
        assert all(v > 0 for v in e2e.values()), e2e
        first, second = metrics_of(workload, 1), metrics_of(workload, 1)
        changed = [n for n in layers.COUNTS if first[n] != second[n]]
        assert not changed, f"{workload}: counts differ between runs: {changed}"
        if workload in ("ote_es", "pattern_es"):
            assert first["ingest.indicative_dropped"] > 0
            assert first["ingest.out_of_session_dropped"] > 0
        print(f"{workload}: ok", flush=True)

    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=build) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = result(run.WORKLOADS[0], 0, cwd=bare)
        assert code != 0 and not any(line.startswith("{") for line in lines), \
            "run.py must refuse to run without the program"
    print("bare benchmark directory: refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
