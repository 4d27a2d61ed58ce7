"""Per-layer metrics from an in-process traced run of the CLI.

The program has no tracing of its own, so this module replaces the public
functions of each layer (``ingest``, ``ote``, ``mps``, ``oracle``,
``distribution``, ``verify``) by module attribute with timing wrappers,
calls ``mpslab.cli.main(argv)`` once untraced and once traced, and puts the
originals back.  The CLI looks these names up on the module at call time,
so every call it makes goes through a wrapper.

A layer whose public name no longer exists reports its metrics as null
with a note; the run goes on.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import gc
import io
import statistics
import time
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from typing import Callable, Optional

Hook = Callable[["Recorder", tuple, dict, object], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _indicative(rec, args, kwargs, result):
    rec.counts["ingest.indicative_dropped"] += len(_arg(args, kwargs, 0, "ticks")) - len(result)


def _sessions(rec, args, kwargs, result):
    kept = sum(len(s.ticks) for s in result.sessions)
    rec.counts["ingest.out_of_session_dropped"] += len(_arg(args, kwargs, 0, "ticks")) - kept
    rec.counts["ingest.sessions"] += len(result.sessions)


def _records(rec, args, kwargs, result):
    rec.counts["ote.ticks_in"] += len(_arg(args, kwargs, 0, "ticks"))
    rec.counts["ote.records"] += len(result)


def _dp(rec, args, kwargs, result):
    prices = _arg(args, kwargs, 0, "prices")
    limit = _arg(args, kwargs, 2, "limit")
    rec.counts["mps.dp_states"] += len(prices) * (2 * limit + 1)
    rec.counts["mps.trades"] += len(result.trades)


def _rows(counter: str, index: int) -> Hook:
    def hook(rec, args, kwargs, result):
        rec.counts[counter] += _arg(args, kwargs, index, "p").size
    return hook


def _checks(rec, args, kwargs, result):
    rec.counts["verify.checks"] += len(result)
    rec.counts["verify.checks_failed"] += sum(1 for r in result if not r.ok)


# (module, public name, span, hook adding the layer's counts)
WRAPPED: list[tuple[str, str, str, Optional[Hook]]] = [
    ("ingest", "parse_ticks", "ingest.parse_ticks", None),
    ("ingest", "trade_ticks", "ingest.trade_ticks", _indicative),
    ("ingest", "sessionize", "ingest.sessionize", _sessions),
    ("ote", "extract_otes", "ote.extract_otes", _records),
    ("ote", "ote_stats", "ote.ote_stats", None),
    ("mps", "mps0", "mps.mps0", _dp),
    ("oracle", "sweep", "oracle.sweep", _rows("oracle.sweep.rows", 0)),
    ("oracle", "empirical_pl_variance", "oracle.empirical_pl_variance",
     _rows("oracle.empirical_pl_variance.rows", 2)),
    ("distribution", "pl_variance", "distribution.pl_variance", None),
    ("verify", "verify_pair", "verify.verify_pair", _checks),
]
MONITOR = ("ote", "HeadShouldersMonitor", "ote.monitor")


class Recorder:
    """Span totals, self times and counts, aggregated per span name.

    A span's self time is its duration minus the time of the spans it
    directly contains.  Spans are aggregated rather than kept one by one
    because the pattern scan makes one per monitored tick.
    """

    def __init__(self):
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()      # spans whose public name is gone
        self.broken: set[str] = set()       # spans whose count hook failed
        self.notes: list[str] = []
        self._stack: list[list] = []        # [name, start, time in child spans]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        def traced(*args, **kwargs):
            self._stack.append([span, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                _, start, inner = self._stack.pop()
                took = time.perf_counter() - start
                self.total[span] += took
                self.self_time[span] += took - inner
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][2] += took
            if hook is not None and span not in self.broken:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    self.broken.add(span)
                    self.notes.append(f"{span}: counts unavailable ({exc!r})")
            return result
        return traced

    def install(self, modules: dict) -> None:
        for mod, name, span, hook in WRAPPED:
            fn = getattr(modules[mod], name, None)
            if fn is None:
                self.missing.add(span)
                self.notes.append(f"{span}: mpslab.{mod}.{name} not found")
                continue
            self._swap(modules[mod], name, self.wrap(span, fn, hook))
        mod, name, span = MONITOR
        base = getattr(modules[mod], name, None)
        if base is None or not hasattr(base, "check"):
            self.missing.add(span)
            self.notes.append(f"{span}: mpslab.{mod}.{name}.check not found")
            return
        self._swap(modules[mod], name, self._monitor(base, span))

    def _monitor(self, base: type, span: str) -> type:
        rec = self
        init = self.wrap(span, base.__init__)

        class Monitor(base):
            def __init__(self, *args, **kwargs):
                rec.counts["ote.monitor.windows"] += 1
                init(self, *args, **kwargs)
                rec.counts["ote.monitor.fixed_ok"] += bool(self.fixed_ok)

            check = rec.wrap(span, base.check)

        return Monitor

    def _swap(self, module, name: str, new) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def uninstall(self) -> None:
        while self._restore:
            module, name, old = self._restore.pop()
            setattr(module, name, old)


def _call(main: Callable, argv: list[str]) -> tuple[int, str, float]:
    gc.collect()
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(argv)
        took = time.perf_counter() - t0
    return code, buf.getvalue(), took


def traced_pair(modules: dict, argv: list[str]) -> tuple[Recorder, str, str, int, int, float]:
    """Run the CLI untraced, then traced; return the recorder and both outputs."""
    cli = modules["cli"]
    code_plain, plain, plain_s = _call(cli.main, argv)
    rec = Recorder()
    rec.install(modules)
    try:
        code_traced, traced, _ = _call(rec.wrap("cli.main", cli.main), argv)
    finally:
        rec.uninstall()
    return rec, plain, traced, code_plain, code_traced, plain_s


# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "ingest.parse_ticks.s": "s", "ingest.parse_ticks.us_per_line": "us",
    "ingest.trade_ticks.s": "s", "ingest.sessionize.s": "s",
    "ingest.lines_read": "count", "ingest.indicative_dropped": "count",
    "ingest.out_of_session_dropped": "count", "ingest.sessions": "count",
    "ote.extract_otes.s": "s", "ote.extract_otes.us_per_tick": "us",
    "ote.records": "count", "ote.ticks_per_record": "ratio",
    "ote.ote_stats.s": "s", "ote.ote_stats.calls": "count",
    "ote.monitor.s": "s", "ote.monitor.windows": "count",
    "ote.monitor.fixed_ok_ratio": "ratio",
    "mps.mps0.s": "s", "mps.dp_states": "count", "mps.ns_per_state": "ns",
    "mps.trades": "count",
    "oracle.sweep.s": "s", "oracle.sweep.rows": "count", "oracle.sweep.rows_per_s": "1/s",
    "oracle.empirical_pl_variance.s": "s", "oracle.empirical_pl_variance.rows": "count",
    "oracle.passes_per_universe": "ratio",
    "distribution.pl_variance.s": "s", "verify.verify_pair.s": "s",
    "verify.self_s": "s", "verify.checks": "count", "verify.checks_failed": "count",
    "cli.main.s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
# metrics that count work; they must repeat exactly for one seed
COUNTS = [name for name, unit in UNITS.items() if unit == "count"] + [
    "ote.ticks_per_record", "ote.monitor.fixed_ok_ratio", "oracle.passes_per_universe",
    "cli.output_bytes"]


def layer_metrics(rec: Recorder, lines: int, output: str, plain_s: float) -> dict:
    """Every per-layer metric of one traced run; None where a layer is gone."""
    def t(span):
        return None if span in rec.missing else rec.total[span]

    def c(counter, span):
        return None if span in rec.missing or span in rec.broken else rec.counts[counter]

    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return num * scale / den if den else 0.0

    parse = t("ingest.parse_ticks")
    ticks_in = c("ote.ticks_in", "ote.extract_otes")
    records = c("ote.records", "ote.extract_otes")
    dp_states = c("mps.dp_states", "mps.mps0")
    sweep_rows = c("oracle.sweep.rows", "oracle.sweep")
    pass_rows = c("oracle.empirical_pl_variance.rows", "oracle.empirical_pl_variance")
    read = None if parse is None else (lines if rec.calls["ingest.parse_ticks"] else 0)
    windows = None if "ote.monitor" in rec.missing else rec.counts["ote.monitor.windows"]
    return {
        "ingest.parse_ticks.s": parse,
        "ingest.parse_ticks.us_per_line": ratio(parse, read, 1e6),
        "ingest.trade_ticks.s": t("ingest.trade_ticks"),
        "ingest.sessionize.s": t("ingest.sessionize"),
        "ingest.lines_read": read,
        "ingest.indicative_dropped": c("ingest.indicative_dropped", "ingest.trade_ticks"),
        "ingest.out_of_session_dropped": c("ingest.out_of_session_dropped", "ingest.sessionize"),
        "ingest.sessions": c("ingest.sessions", "ingest.sessionize"),
        "ote.extract_otes.s": t("ote.extract_otes"),
        "ote.extract_otes.us_per_tick": ratio(t("ote.extract_otes"), ticks_in, 1e6),
        "ote.records": records,
        "ote.ticks_per_record": ratio(ticks_in, records),
        "ote.ote_stats.s": t("ote.ote_stats"),
        "ote.ote_stats.calls": None if "ote.ote_stats" in rec.missing
        else rec.calls["ote.ote_stats"],
        "ote.monitor.s": t("ote.monitor"),
        "ote.monitor.windows": windows,
        "ote.monitor.fixed_ok_ratio": ratio(rec.counts["ote.monitor.fixed_ok"], windows),
        "mps.mps0.s": t("mps.mps0"),
        "mps.dp_states": dp_states,
        "mps.ns_per_state": ratio(t("mps.mps0"), dp_states, 1e9),
        "mps.trades": c("mps.trades", "mps.mps0"),
        "oracle.sweep.s": t("oracle.sweep"),
        "oracle.sweep.rows": sweep_rows,
        "oracle.sweep.rows_per_s": ratio(sweep_rows, t("oracle.sweep")),
        "oracle.empirical_pl_variance.s": t("oracle.empirical_pl_variance"),
        "oracle.empirical_pl_variance.rows": pass_rows,
        # a pass folded into the sweep leaves no empirical_pl_variance rows
        "oracle.passes_per_universe": ratio(
            None if sweep_rows is None else sweep_rows + (pass_rows or 0), sweep_rows),
        "distribution.pl_variance.s": t("distribution.pl_variance"),
        "verify.verify_pair.s": t("verify.verify_pair"),
        "verify.self_s": None if "verify.verify_pair" in rec.missing
        else rec.self_time["verify.verify_pair"],
        "verify.checks": c("verify.checks", "verify.verify_pair"),
        "verify.checks_failed": c("verify.checks_failed", "verify.verify_pair"),
        "cli.main.s": rec.total["cli.main"],
        "cli.self_s": rec.self_time["cli.main"],
        "cli.output_bytes": len(output.encode()),
        "trace.overhead_s": rec.total["cli.main"] - plain_s,
    }


def median_metrics(runs: list[dict]) -> dict:
    """Per-metric median over traced runs; counts, which repeat exactly,
    are taken from the first run, and None stays None."""
    out = {}
    for name in UNITS:
        values = [r[name] for r in runs if r[name] is not None]
        if name in COUNTS or not values:
            out[name] = runs[0][name]
        else:
            out[name] = statistics.median(values)
    return out
