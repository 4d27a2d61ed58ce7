"""Seeded end-to-end and per-layer benchmark of the mpslab CLI.

Run from the repository root:

    python3 perfbench/run.py --workload ote_es --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the CLI (``python -m mpslab.cli ...``) runs in a fresh
child process, one at a time, in a closed loop with a single client, until
``--seconds`` are used.  CPU time and peak RSS come from each child's own
rusage (``os.wait4``).  Every child runs on one CPU beside a fixed
reference job (corun.py), which turns its wall and CPU time into seconds
on the reference host, free of the shared host's changing speed.
``setup_s`` is the time a fresh interpreter takes to import ``mpslab.cli``
and build its parser, measured the same way; three such samples are taken
before each CLI run.

With ``--trace 1`` the CLI runs in this process instead, once untraced and
once with every layer wrapped (see layers.py), and the per-layer metrics
are reported.

Every output is checked (check.py); on the default seed its sha256 must
also match reference.json.  The last line of stdout is the result object;
the line before it carries the raw samples, input digests and notes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import check
import corun
import ticks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 100
SETUP_PER_RUN = 3
SETUP_ARGV = ["-c", "import mpslab.cli as c; c.build_parser()"]

COST, OTE_FC, PATTERN_FC, MPS_W = "4.68", "100", "12.49", 20
OTE = ("ote", "--contract", "ES", "--fc", OTE_FC, "--cost", COST)
PATTERN = ("pattern", "--contract", "ES", "--fc", PATTERN_FC, "--cost", COST)
MPS = ("mps", "--contract", "ES", "--cost", COST, "--W", str(MPS_W))

# Input size per workload: (sessions, ticks per session) of the generated
# file, or the verify budget.  "tiny" is for selfcheck.py only.
SIZES = {
    "full": {"ote_es": (3, 66667), "pattern_es": (3, 66667), "mps_w20": (1, 5000),
             "verify_1e6": 10 ** 6},
    "tiny": {"ote_es": (2, 2500), "pattern_es": (2, 12000), "mps_w20": (1, 300),
             "verify_1e6": 2000},
}
WORKLOADS = tuple(SIZES["full"])


@dataclass
class Case:
    """One workload on one seed: CLI arguments, input size, output check."""

    argv: list[str]
    units: int                           # tick lines, or strategies swept
    lines: int                           # tick lines in the input file
    check: Callable[[str], Optional[str]]
    input_sha256: Optional[str]
    tick_file: Optional[ticks.TickFile]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare(workload: str, seed: int, scale: str, workdir: Path) -> Case:
    size = SIZES[scale][workload]
    if workload == "verify_1e6":
        return Case(["verify", "--max-universe", str(size)],
                    check.universe_strategies(size), 0,
                    lambda out: check.check_verify(out, size), None, None)
    tf = ticks.generate(seed, *size)
    if tf.sessions > 1 and not (tf.indicative and tf.out_of_session):
        raise SystemExit("generator made no indicative or no out-of-session tick")
    data = tf.text().encode()
    path = workdir / "ticks.txt"
    path.write_bytes(data)
    if workload == "ote_es":
        argv, chk = [*OTE, str(path)], lambda out: check.check_ote(out, tf, OTE_FC, COST)
    elif workload == "pattern_es":
        argv, chk = [*PATTERN, str(path)], lambda out: check.check_pattern(out, tf, PATTERN_FC)
    else:
        deltas = [tk.deltas for tk in tf.ticks if tk.size]   # mps does not sessionize
        argv, chk = [*MPS, str(path)], lambda out: check.check_mps(out, deltas, MPS_W, COST)
    return Case(argv, len(tf.ticks), len(tf.ticks), chk, sha256(data), tf)


class OutputJudge:
    """Checks each distinct stdout once; on the default seed also its digest."""

    def __init__(self, case: Case, reference: Optional[dict]):
        self.case = case
        self.reference = reference
        self.verdicts: dict[str, Optional[str]] = {}

    def __call__(self, out: bytes) -> Optional[str]:
        digest = sha256(out)
        if digest not in self.verdicts:
            try:
                verdict = self.case.check(out.decode())
            except (ValueError, IndexError, KeyError) as exc:
                verdict = f"unparsable output: {exc!r}"
            if verdict is None and self.reference is not None:
                if self.reference.get("input_sha256") != self.case.input_sha256:
                    verdict = "input differs from the reference input of the default seed"
                elif self.reference["stdout_sha256"] != digest:
                    verdict = "stdout digest differs from the reference"
            self.verdicts[digest] = verdict
        return self.verdicts[digest]


def run_child(argv: list[str], env: dict, stdout, stderr) -> corun.Corun:
    """Spawn, run the reference job beside it, read the child's own rusage."""
    return corun.run_beside([sys.executable, *argv], CHILD_TIMEOUT_S, stdout=stdout,
                            stderr=stderr, env=env, cwd=ROOT)


def end_to_end(case: Case, judge: OutputJudge, seconds: float, workdir: Path) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    cpu = corun.pin_to_one_cpu()
    with open(os.devnull, "wb") as null:
        run_child(SETUP_ARGV, env, null, null)       # compile .pyc, warm the page cache
        setup, runs, failures = [], [], []
        start = time.perf_counter()
        while True:
            for _ in range(SETUP_PER_RUN):
                setup.append(run_child(SETUP_ARGV, env, null, null))
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                child = run_child(["-m", "mpslab.cli", *case.argv], env, out, err)
            runs.append(child)
            if child.code != 0:
                tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
                failures.append(f"exit {child.code}: {' '.join(tail)}")
            elif (verdict := judge(out_path.read_bytes())) is not None:
                failures.append(verdict)
            per_round = statistics.median(r.wall_s for r in runs) + \
                SETUP_PER_RUN * statistics.median(s.wall_s for s in setup)
            if time.perf_counter() - start + per_round > seconds:
                break
    wall = statistics.median(r.wall_ref_s for r in runs)
    metrics = {
        "wall_s": (wall, "s"),
        "throughput_per_s": (case.units / wall, "1/s"),
        "cpu_s": (statistics.median(r.cpu_ref_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "setup_s": (statistics.median(s.wall_ref_s for s in setup), "s"),
        "ok_share": ((len(runs) - len(failures)) / len(runs), "share"),
    }
    info = {
        "cpu": cpu, "samples": len(runs), "setup_samples": len(setup),
        "wall_ref_s": [r.wall_ref_s for r in runs], "cpu_ref_s": [r.cpu_ref_s for r in runs],
        "setup_ref_s": [s.wall_ref_s for s in setup],
        "raw_wall_s": [r.wall_s for r in runs], "raw_cpu_s": [r.cpu_s for r in runs],
        "raw_setup_s": [s.wall_s for s in setup],
        "ref_unit_s": [r.ref_cpu_s / r.ref_units for r in runs],
        "peak_rss_mb": [r.rss_mb for r in runs], "stdout_sha256": sorted(judge.verdicts),
    }
    return metrics, len(runs), len(failures), failures, info


def traced(case: Case, judge: OutputJudge, seconds: float) -> tuple:
    import layers

    sys.path.insert(0, str(SRC))
    import mpslab.cli
    from mpslab import distribution, ingest, mps, oracle, ote, verify

    modules = {"cli": mpslab.cli, "ingest": ingest, "ote": ote, "mps": mps,
               "oracle": oracle, "distribution": distribution, "verify": verify}
    runs, failures, notes = [], [], []
    start = time.perf_counter()
    while True:
        rec, plain, traced_out, code_plain, code_traced, plain_s = \
            layers.traced_pair(modules, case.argv)
        notes.extend(n for n in rec.notes if n not in notes)
        metrics = layers.layer_metrics(rec, case.lines, traced_out, plain_s)
        verdict = judge(plain.encode()) if code_plain == 0 else f"exit {code_plain}"
        if verdict is None and (code_traced != 0 or traced_out != plain):
            verdict = "traced stdout differs from untraced stdout"
        if verdict is None and case.tick_file is not None:
            verdict = _dropped_mismatch(case.tick_file, metrics)
        if verdict is None and runs:
            changed = [n for n in layers.COUNTS if metrics[n] != runs[0][n]]
            if changed:
                verdict = f"counts differ between runs of one seed: {changed}"
        if verdict is not None:
            failures.append(verdict)
        runs.append(metrics)
        per_pair = 2 * statistics.median(r["cli.main.s"] for r in runs)
        if time.perf_counter() - start + per_pair > seconds:
            break
    merged = layers.median_metrics(runs)
    metrics = {name: (merged[name], unit) for name, unit in layers.UNITS.items()}
    return metrics, len(runs), len(failures), failures, {"traced_pairs": len(runs),
                                                         "notes": notes}


def _dropped_mismatch(tf: ticks.TickFile, metrics: dict) -> Optional[str]:
    """The CLI must drop exactly the generated indicative and gap ticks."""
    want = {"ingest.indicative_dropped": tf.indicative}
    if metrics["ingest.sessions"]:
        want["ingest.out_of_session_dropped"] = tf.out_of_session
    got = {name: metrics[name] for name in want}
    bad = {n: (got[n], want[n]) for n in want if got[n] is not None and got[n] != want[n]}
    return f"dropped-tick counts (got, generated): {bad}" if bad else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full",
                        help="input size; 'tiny' is the smoke-test size")
    args = parser.parse_args(argv)
    if not (SRC / "mpslab" / "cli.py").is_file():
        print(f"error: {SRC / 'mpslab'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[args.scale][args.workload]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build) as tmp:
        workdir = Path(tmp)
        case = prepare(args.workload, args.seed, args.scale, workdir)
        judge = OutputJudge(case, reference)
        if args.trace:
            metrics, attempted, failed, failures, info = traced(case, judge, args.seconds)
        else:
            metrics, attempted, failed, failures, info = end_to_end(
                case, judge, args.seconds, workdir)
    info = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "trace": args.trace, "input_sha256": case.input_sha256,
            "input_lines": case.lines, "units": case.units, "failures": failures, **info}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
