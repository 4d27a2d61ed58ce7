"""Command-line interface exposing every analysis as a subcommand.

    mpslab counts --W 1 --n 3
    mpslab dist --W 1 --n 4 --format tsv
    mpslab verify --max-universe 1000000
    mpslab magma-table --W 3 --op minus
    mpslab rank --n 8
    mpslab mps --contract ES --cost 5 --prices 2369.50,2369.75,2370.00
    mpslab ote --contract ES --fc 100 --cost 4.68 ticks.txt
    mpslab stats --metric profit samples.txt
    mpslab pattern --contract ES --fc 49.99 --cost 4.68 ticks.txt

Identical inputs and flags always produce byte-identical output; exit code
0 on success, 1 on a validation error, 2 on a budget refusal.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator

# each subcommand imports the modules it runs, so only `verify` loads numpy
from . import __version__
from .model import ContractSpec
from .numeric import BudgetExceeded, ExponentError, as_fraction, fmt_dollars, fmt_price

CONFIG_ENV = "MPSLAB_CONFIG"

# `dist` rows, `magma-table` cells, `rank`'s basis entries or `--bins` past
# this exit 2 before any work
MAX_TABLE_ENTRIES = 10 ** 6
_BATCH_LINES = 256      # lines per write; a write per line is ~25 % slower at dist's bound


def _number(text: str) -> Fraction:
    """An exact number from the command line or a samples file; bad text is
    a ValueError that names it, not a raw Fraction message."""
    try:
        return as_fraction(text)
    except ExponentError:
        raise
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text!r}") from None


def _check_args(args) -> None:
    """Cross-field validation of the parsed command line, before dispatch."""
    get = lambda name, default=None: getattr(args, name, default)
    fc, cost = (_number(get(name)) if get(name) is not None else None
                for name in ("fc", "cost"))
    for failed, message in [
        (get("max_universe") is not None and args.max_universe <= 0, "budget must be positive"),
        (get("max_universe") is not None and args.max_universe < 3,
         "budget must be >= 3, the size of the smallest universe (W = 1, n = 2)"),
        (get("bins") is not None and args.bins < 1, "bin count must be >= 1"),
        (get("W") is not None and args.W < 1, "position limit W must be >= 1"),
        (get("n") is not None and args.n < 2, "tick count n must be >= 2"),
        (fc is not None and fc < 0, "filtering cost must be non-negative"),
        (cost is not None and cost < 0, "cost must be non-negative"),
        (fc is not None and cost >= fc, "actual cost C must be below the filtering cost FC"),
        (get("eq_tol", 0) < 0 or get("lt_tol", 0) < 0, "tolerances must be non-negative"),
        (get("prices") and get("file"), "give --prices or a tick file, not both"),
        (get("emit_plot") and not get("out"), "--emit-plot needs --out"),
        (get("emit_plot") and get("format", "tsv") != "tsv", "--emit-plot needs --format tsv"),
    ]:
        if failed:
            raise ValueError(message)
    size, unit = _table_size(args)
    if size > MAX_TABLE_ENTRIES:
        raise BudgetExceeded(f"{size} {unit}, over the limit of {MAX_TABLE_ENTRIES}")


def _table_size(args) -> tuple[int, str]:
    """The entries of the table the command builds: dist's 4W+1 action
    sizes, magma-table's (2W+1)^2 cells, rank's n^2 basis entries, or the
    histogram bins asked for."""
    if args.command == "dist":
        return 4 * args.W + 1, "rows"
    if args.command == "magma-table":
        return (2 * args.W + 1) ** 2, "cells"
    if args.command == "rank":
        return args.n ** 2, "basis entries"
    return getattr(args, "bins", None) or 0, "bins"


def _printable_universe(args):
    """The --W/--n universe, refused before any power is built when its
    largest figure, n*(2W+1)^(n-1), has more digits than Python prints."""
    from .distribution import UniverseParams
    p = UniverseParams(args.W, args.n)
    try:
        digits = int(math.log10(p.n) + (p.n - 1) * math.log10(p.base)) + 1
    except OverflowError:       # n past the float range: far too many digits for any limit
        raise BudgetExceeded("n*(2W+1)^(n-1) has more digits than a float can count") from None
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise BudgetExceeded(f"n*(2W+1)^(n-1) has {digits} digits, "
                             f"over the {limit}-digit limit for printing an int")
    return p


def _emit(args, lines: Iterable[str], plot_stub: str | None = None) -> None:
    """The one writer of command output: each of ``lines`` (a json row holds
    several) and a newline, to --out or stdout, a batch at a time as made;
    commands make all that can fail first, so only formatting runs in here."""
    out, lines = getattr(args, "out", None), iter(lines)
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        while batch := list(islice(lines, _BATCH_LINES)):
            fh.write("\n".join(batch) + "\n")
    if plot_stub and args.emit_plot:  # only commands with a stub take --emit-plot
        with open(out + ".gp", "w") as fh:
            fh.write(plot_stub.format(data=out))


def _contract(args) -> ContractSpec:
    from . import ingest
    config = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    return ingest.contract_for(args.contract, config)


def _open_text(path: str):
    """A tick or samples file, or stdin for '-', read as UTF-8 after an
    optional byte-order mark.  A byte that is not UTF-8 becomes a lone
    surrogate, for the reader to refuse with its line number, the same for a
    file and for stdin."""
    text = {"encoding": "utf-8-sig", "errors": "surrogateescape"}
    if path != "-":
        return open(path, **text)
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(**text)
    return nullcontext(sys.stdin)


def _read_ticks(args, spec):
    from . import ingest
    with _open_text(args.file) as fh:
        return ingest.trade_ticks(ingest.parse_ticks(fh, spec))


def _session_trades(args, spec) -> list:
    """The tick -> trade pipeline of ``ote`` and ``pattern``: read, drop
    indicative ticks, split into sessions, pair each with its trades."""
    from . import ingest, ote as ote_mod
    sessions = ingest.sessionize(_read_ticks(args, spec)).sessions
    fc, cost = as_fraction(args.fc), as_fraction(args.cost)
    return [(session, ote_mod.extract_otes(session.ticks, fc, cost, spec))
            for session in sessions]


def cmd_counts(args) -> int:
    import json
    from . import distribution as dist
    record = dist.universe_counts(_printable_universe(args))._asdict()
    _emit(args, [json.dumps(record, indent=2)] if args.format == "json"
          else (f"{k}={v}" for k, v in record.items()))
    return 0


_DIST_PLOT = """set terminal pngcairo size 900,600
set output '{data}.png'
set style data linespoints
plot '{data}' using 1:3 title 'pmf', '{data}' using 1:4 title 'cdf'
"""


# dist's head, row (of m, count, pmf, cdf, and "," if a row follows), tail and
# plot stub per --format; json is json.dumps(rows, indent=2)'s layout
_DIST_FORMATS = {
    "tsv": (["m\tcount\tpmf\tcdf"], "{0}\t{1}\t{2!r}\t{3!r}", [], _DIST_PLOT),
    "json": (["["], '  {{\n    "m": {0},\n    "count": {1},\n    "pmf": {2!r}\n  }}{4}', ["]"],
             None),
}


def cmd_dist(args) -> int:
    from . import distribution as dist
    p = _printable_universe(args)
    head, row, tail, plot = _DIST_FORMATS[args.format]
    den = p.n * p.base ** 2     # int / int rounds as float(Fraction) does
    # count(m) = r(m) n b^(n-1) / (n b^2), distribution.action_count's rule
    scale, square, last = p.base ** (p.n - 1), p.base ** 2, 2 * p.limit

    def rows() -> Iterator[str]:
        cum = 0
        for m, r in dist.action_weights(p):
            cum += r
            yield row.format(m, r * scale // square, r / den, cum / den, "," if m < last else "")

    _emit(args, chain(head, rows(), tail), plot)
    return 0


def cmd_verify(args) -> int:
    from . import verify
    budget = verify.DEFAULT_MAX_UNIVERSE if args.max_universe is None else args.max_universe
    results = verify.verify_matrix(budget)
    failures = sum(not r.ok for r in results)
    _emit(args, ["W\tn\tcheck\tstatus",
                 *(f"{r.limit}\t{r.n}\t{r.check}\t{'pass' if r.ok else 'FAIL'}" for r in results),
                 f"# {len(results) - failures}/{len(results)} checks passed"])
    return 1 if failures else 0


def cmd_magma_table(args) -> int:
    from . import magma
    values = range(-args.W, args.W + 1)
    table = magma.cayley_table(args.W, args.op)
    _emit(args, chain(["\t".join(["(+)" if args.op == "plus" else "(-)", *map(str, values)])],
                      ("\t".join([str(left), *("n/a" if v is None else str(v) for v in row)])
                       for left, row in zip(values, table))))
    return 0


def cmd_rank(args) -> int:
    from . import vectors
    _emit(args, [f"rank={vectors.rank_of_universe(args.n)}"])
    return 0


def cmd_mps(args) -> int:
    from . import ingest, mps as mps_mod
    spec = _contract(args)
    if args.prices:
        prices = [_number(tok) for tok in args.prices.split(",")]
    else:
        if not args.file:
            raise ValueError("provide --prices or a tick file")
        # the traded ticks in time order, priced in grid counts: the same
        # contract quoted in deltas, so P&L and trades come out the same
        prices = ingest.in_time_order(_read_ticks(args, spec)).deltas
        spec = ContractSpec(spec.symbol, spec.delta_dollars, 1)
    result = mps_mod.mps0(prices, as_fraction(args.cost), args.W, spec)
    actions = result.strategy.actions
    strategy = (["strategy=" + ",".join(map(str, actions))] if len(actions) <= 60 else
                chain([f"transactions={sum(1 for a in actions if a)}"],
                      (f"action\t{i}\t{a}" for i, a in enumerate(actions) if a)))
    _emit(args, chain([f"pl={fmt_dollars(result.pl)}"], strategy,
                      (f"trade\t{t.start}\t{t.end}\t{'long' if t.direction > 0 else 'short'}"
                       for t in result.trades)))
    return 0


def _stats_block(stats, title: str) -> Iterator[str]:
    yield from [
        f"{title} distribution",
        f"Mean                = {float(stats.mean)}",
        f"Samples size        = {stats.count}",
        f"Maximum value       = {float(stats.maximum)}",
        f"Maximum value count = {stats.max_count}",
        f"Minimum value       = {float(stats.minimum)}",
        f"Minimum value count = {stats.min_count}",
        f"Variance            = {float(stats.variance)}",
        f"Std. deviation      = {stats.std_dev}",
        f"Skewness            = {stats.skewness}",
        f"Excess kurtosis     = {stats.excess_kurtosis}",
    ]
    for idx, (lo, hi, count) in enumerate(stats.histogram):
        yield f"{idx} ({lo}, {hi}] {count}"


_OTE_PLOT = """set terminal pngcairo size 900,600
set output '{data}.png'
plot '{data}' index 1 using 1:2 with steps title 'ECDF'
"""


def cmd_ote(args) -> int:
    from . import ote as ote_mod
    spec = _contract(args)
    records = [r for _, found in _session_trades(args, spec) for r in found]
    # ote_stats takes the closed records, and with --include-open the open ones
    metrics = ("profit", "duration") if sum(r.closed or args.include_open
                                            for r in records) >= 2 else ()
    stats = [ote_mod.ote_stats(records, m, args.include_open, args.bins) for m in metrics]

    def lines() -> Iterator[str]:
        yield "#\tt_start\tP_start\tt_end\tP_end\tdt_s\tPL\tType"
        for idx, r in enumerate(records, start=1):
            yield "\t".join([
                str(idx),
                r.t_start.strftime("%Y-%m-%d %H:%M:%S"), fmt_price(r.p_start, spec.delta),
                r.t_end.strftime("%Y-%m-%d %H:%M:%S"), fmt_price(r.p_end, spec.delta),
                str(int(r.duration)), fmt_dollars(r.pl), r.ote_type.value,
            ])
        if stats:
            profit, duration = stats
            yield ""
            yield from _stats_block(profit, "PL")
            yield ""
            yield from _stats_block(duration, "Trade time")
            yield from ["", "# EPMF", "profit\tcount"]
            yield from (f"{fmt_dollars(value)}\t{count}" for value, count in profit.epmf)
            yield from ["", "# ECDF", "profit\tcumulative"]
            yield from (f"{fmt_dollars(value)}\t{float(frac)!r}" for value, frac in profit.ecdf)

    _emit(args, lines(), _OTE_PLOT)
    return 0


def _samples(lines) -> list[Fraction]:
    """Whitespace-separated numbers; a bad one is named with its line."""
    values = []
    for line_no, line in enumerate(lines, start=1):
        for tok in line.split():
            try:
                values.append(_number(tok))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
    return values


def cmd_stats(args) -> int:
    from . import ote as ote_mod
    with _open_text(args.file) as fh:
        values = _samples(fh)
    stats = ote_mod.sample_stats(values, args.bins)
    _emit(args, _stats_block(stats, args.metric.capitalize()))
    return 0


def cmd_pattern(args) -> int:
    from . import ote as ote_mod
    spec = _contract(args)
    tol = ote_mod.Tolerances(args.eq_tol, args.lt_tol)
    hits = [(session.day, end, records[end - 1].columns[i])
            for session, records in _session_trades(args, spec)
            for end, i in ote_mod.head_and_shoulders_hits(records, tol, spec)]
    _emit(args, ["session\twindow_end\tmatched_at\tprice",
                 *("\t".join([str(day), str(end), tick.timestamp.strftime("%Y-%m-%d %H:%M:%S"),
                              fmt_price(tick.price, spec.delta)]) for day, end, tick in hits),
                 f"# {len(hits)} matches"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mpslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plot=False):
        p.add_argument("--out", help="write output to this path instead of stdout")
        if plot:
            p.add_argument("--emit-plot", action="store_true",
                           help="also write a gnuplot script next to --out")

    p = sub.add_parser("counts", help="closed-form universe counts")
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    common(p)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("dist", help="action distribution table (PMF/CDF)")
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    common(p, plot=True)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("verify", help="formula-vs-enumeration verification matrix")
    p.add_argument("--max-universe", type=int)  # None: verify.DEFAULT_MAX_UNIVERSE
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("magma-table", help="Cayley table of the capped algebra")
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--op", choices=("plus", "minus"), default="plus")
    common(p)
    p.set_defaults(func=cmd_magma_table)

    p = sub.add_parser("rank", help="rank of the strategy universe")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("mps", help="maximum-profit strategy over prices or ticks")
    p.add_argument("--contract", default="ES")
    p.add_argument("--config", help=f"contract config file (or ${CONFIG_ENV})")
    p.add_argument("--cost", required=True, help="per-contract transaction cost, dollars")
    p.add_argument("--W", type=int, default=1)
    p.add_argument("--prices", help="comma-separated price chain")
    p.add_argument("file", nargs="?", help="tick file ('-' for stdin)")
    common(p)
    p.set_defaults(func=cmd_mps)

    p = sub.add_parser("ote", help="optimal trading elements of tick sessions")
    p.add_argument("--contract", default="ES")
    p.add_argument("--config")
    p.add_argument("--fc", required=True, help="filtering cost, dollars")
    p.add_argument("--cost", required=True, help="actual cost, dollars")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--include-open", action="store_true",
                   help="include the session-terminated trade in statistics")
    p.add_argument("file", help="tick file ('-' for stdin)")
    common(p, plot=True)
    p.set_defaults(func=cmd_ote)

    p = sub.add_parser("stats", help="sample statistics block for numbers in a file")
    p.add_argument("--metric", default="profit")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("file", help="one sample per line ('-' for stdin)")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pattern", help="head-and-shoulders scan over tick sessions")
    p.add_argument("--contract", default="ES")
    p.add_argument("--config")
    p.add_argument("--fc", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--eq-tol", type=int, default=0, help="equality slack, deltas")
    p.add_argument("--lt-tol", type=int, default=0, help="strictness slack, deltas")
    p.add_argument("file", help="tick file ('-' for stdin)")
    common(p)
    p.set_defaults(func=cmd_pattern)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
