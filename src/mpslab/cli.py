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

# each subcommand imports the modules it runs, so only `verify` loads numpy
from . import __version__
from .model import ContractSpec, GridError
from .numeric import BudgetExceeded, ExponentError, as_fraction, fmt_dollars, fmt_price

CONFIG_ENV = "MPSLAB_CONFIG"

MAX_RANK_N = 1000   # `rank --n` past this exits 2 before the n^2-Fraction basis is built


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
        (get("bins") is not None and args.bins < 1, "bin count must be >= 1"),
        (get("W") is not None and args.W < 1, "position limit W must be >= 1"),
        (get("n") is not None and args.n < 2, "tick count n must be >= 2"),
        (fc is not None and fc < 0, "filtering cost must be non-negative"),
        (cost is not None and cost < 0, "cost must be non-negative"),
        (fc is not None and cost >= fc, "actual cost C must be below the filtering cost FC"),
        (get("eq_tol", 0) < 0 or get("lt_tol", 0) < 0, "tolerances must be non-negative"),
    ]:
        if failed:
            raise ValueError(message)


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


def _emit(args, text: str, plot_stub: str | None = None) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        if getattr(args, "emit_plot", False) and plot_stub:
            with open(args.out + ".gp", "w") as fh:
                fh.write(plot_stub.format(data=args.out))
    else:
        sys.stdout.write(text)


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
    counts = dist.universe_counts(_printable_universe(args))
    record = {
        "strategies": counts.strategies,
        "actions_total": counts.actions_total,
        "do_nothing": counts.do_nothing,
        "transactions": counts.transactions,
    }
    if args.format == "json":
        _emit(args, json.dumps(record, indent=2) + "\n")
    else:
        _emit(args, "".join(f"{k}={v}\n" for k, v in record.items()))
    return 0


_DIST_PLOT = """set terminal pngcairo size 900,600
set output '{data}.png'
set style data linespoints
plot '{data}' using 1:3 title 'pmf', '{data}' using 1:4 title 'cdf'
"""


def cmd_dist(args) -> int:
    import json
    from . import distribution as dist
    p = _printable_universe(args)
    pmf = dist.action_pmf(p)
    table = [(m, dist.action_count(m, p), pmf[m]) for m in sorted(pmf)]
    if args.format == "json":
        payload = [{"m": m, "count": count, "pmf": float(f)} for m, count, f in table]
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        rows, cum = ["m\tcount\tpmf\tcdf"], Fraction(0)
        for m, count, f in table:
            cum += f
            rows.append("\t".join([str(m), str(count), repr(float(f)), repr(float(cum))]))
        _emit(args, "\n".join(rows) + "\n", _DIST_PLOT)
    return 0


def cmd_verify(args) -> int:
    from . import verify
    budget = verify.DEFAULT_MAX_UNIVERSE if args.max_universe is None else args.max_universe
    results = verify.verify_matrix(budget)
    lines = ["W\tn\tcheck\tstatus"]
    failures = 0
    for r in results:
        lines.append(f"{r.limit}\t{r.n}\t{r.check}\t{'pass' if r.ok else 'FAIL'}")
        failures += 0 if r.ok else 1
    lines.append(f"# {len(results) - failures}/{len(results)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failures else 0


def cmd_magma_table(args) -> int:
    from . import magma
    table = magma.cayley_table(args.W, args.op)
    values = list(range(-args.W, args.W + 1))
    header = "\t".join([("(+)" if args.op == "plus" else "(-)")] + [str(v) for v in values])
    lines = [header]
    for left, row in zip(values, table):
        cells = [str(left)] + ["n/a" if v is None else str(v) for v in row]
        lines.append("\t".join(cells))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_rank(args) -> int:
    if args.n > MAX_RANK_N:
        raise BudgetExceeded(f"n = {args.n}, over the limit of {MAX_RANK_N}")
    from . import vectors
    _emit(args, f"rank={vectors.rank_of_universe(args.n)}\n")
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
    lines = [f"pl={fmt_dollars(result.pl)}"]
    if len(result.strategy) <= 60:
        lines.append("strategy=" + ",".join(str(a) for a in result.strategy.actions))
    else:
        lines.append(f"transactions={sum(1 for a in result.strategy.actions if a)}")
        for i, a in enumerate(result.strategy.actions):
            if a:
                lines.append(f"action\t{i}\t{a}")
    for t in result.trades:
        side = "long" if t.direction > 0 else "short"
        lines.append(f"trade\t{t.start}\t{t.end}\t{side}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _stats_block(stats, title: str) -> list[str]:
    lines = [
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
        lines.append(f"{idx} ({lo}, {hi}] {count}")
    return lines


_OTE_PLOT = """set terminal pngcairo size 900,600
set output '{data}.png'
plot '{data}' index 1 using 1:2 with steps title 'ECDF'
"""


def cmd_ote(args) -> int:
    from . import ote as ote_mod
    spec = _contract(args)
    records = [r for _, found in _session_trades(args, spec) for r in found]
    lines = ["#\tt_start\tP_start\tt_end\tP_end\tdt_s\tPL\tType"]
    for idx, r in enumerate(records, start=1):
        lines.append("\t".join([
            str(idx),
            r.t_start.strftime("%Y-%m-%d %H:%M:%S"), fmt_price(r.p_start, spec.delta),
            r.t_end.strftime("%Y-%m-%d %H:%M:%S"), fmt_price(r.p_end, spec.delta),
            str(int(r.duration)), fmt_dollars(r.pl), r.ote_type.value,
        ]))
    used = [r for r in records if r.closed or args.include_open]
    if len(used) >= 2:
        profit_stats = ote_mod.ote_stats(used, "profit", True, args.bins)
        lines.append("")
        lines.extend(_stats_block(profit_stats, "PL"))
        lines.append("")
        lines.extend(_stats_block(ote_mod.ote_stats(used, "duration", True, args.bins),
                                  "Trade time"))
        lines.append("")
        lines.append("# EPMF")
        lines.append("profit\tcount")
        for value, count in profit_stats.epmf:
            lines.append(f"{fmt_dollars(value)}\t{count}")
        lines.append("")
        lines.append("# ECDF")
        lines.append("profit\tcumulative")
        for value, frac in profit_stats.ecdf:
            lines.append(f"{fmt_dollars(value)}\t{repr(float(frac))}")
    _emit(args, "\n".join(lines) + "\n", _OTE_PLOT)
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
    _emit(args, "\n".join(_stats_block(stats, args.metric.capitalize())) + "\n")
    return 0


def cmd_pattern(args) -> int:
    from . import ote as ote_mod
    spec = _contract(args)
    tol = ote_mod.Tolerances(args.eq_tol, args.lt_tol)
    lines = ["session\twindow_end\tmatched_at\tprice"]
    for session, records in _session_trades(args, spec):
        for end, i in ote_mod.head_and_shoulders_hits(records, tol, spec):
            tick = records[end - 1].columns[i]
            lines.append("\t".join([str(session.day), str(end),
                                    tick.timestamp.strftime("%Y-%m-%d %H:%M:%S"),
                                    fmt_price(tick.price, spec.delta)]))
    lines.append(f"# {len(lines) - 1} matches")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mpslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")
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
    common(p)
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
    common(p)
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
    except (ValueError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
