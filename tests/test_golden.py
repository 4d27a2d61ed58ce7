"""Golden CLI output: the sha256 of stdout for fixed inputs.

The tick file is a seeded random walk on the ES grid written by this test,
not by the package, over two overnight sessions with indicative (size 0)
ticks and ticks in the gap between sessions.  A digest changes only when
the bytes a subcommand prints change.
"""

import hashlib
import random
from fractions import Fraction
from itertools import accumulate

from test_mps import _certify
from mpslab import ContractSpec, MpsResult, OteType, Strategy, extract_otes, serialize_ticks
from mpslab.cli import main
from mpslab.ingest import TickColumns, parse_ticks, sessionize, trade_ticks
from mpslab.mps import MpsTrade
from mpslab.numeric import fmt_price

DAY = 86_400
OPEN = 17 * 3600                  # ES session open, the calendar day before


def _tick_text(reverse_sessions: bool = False) -> str:
    """The golden ticks, in time order; with ``reverse_sessions`` each
    session's lines come in reverse, which only a sort puts back in order."""
    rng = random.Random("mpslab-golden")
    level, lines = 4 * 2350, []

    def line(day: int, second: int, deltas: int, size: int) -> str:
        cents = deltas * 25
        return (f"2017/04/{9 + day:02d} {second // 3600:02d}:{second // 60 % 60:02d}:"
                f"{second % 60:02d} {cents // 100}.{cents % 100:02d} {size}\n")

    for session in range(2):
        start = len(lines)
        # 17:00 to 24:00, then 00:00 to 15:15 of the closing day, on whole
        # minutes, so that many ticks share a time
        for offset in sorted(60 * rng.randrange(22 * 60 + 15) for _ in range(700)):
            day, second = session + (OPEN + offset) // DAY, (OPEN + offset) % DAY
            if rng.random() < 0.03:
                lines.append(line(day, second, level + rng.choice((-1, 1)), 0))
                continue
            level += rng.choice((-1, 1))
            lines.append(line(day, second, level, rng.randint(1, 9)))
        if reverse_sessions:
            lines[start:] = reversed(lines[start:])
        if session == 0:                            # a few ticks between sessions
            for offset in sorted(rng.randrange(3600) for _ in range(5)):
                level += rng.choice((-1, 1))
                lines.append(line(1, 15 * 3600 + 30 * 60 + offset, level, 1))
    return "".join(lines)


TICK_COMMANDS = {
    ("ote", "--fc", "49.99", "--cost", "4.68"):
        "f4a4535e0ea090ea590741fb73a2546f1a00c6636d36e592bdc35f8785ca51b9",
    ("ote", "--fc", "49.99", "--cost", "4.68", "--include-open"):
        "dd8491deeb1e547baaf133d910235ecbd0e4f1bd5aae36d32b458bc931556b77",
    ("ote", "--fc", "49.99", "--cost", "4.68", "--bins", "3", "--include-open"):
        "b24df38841693677bfbc614f4e7d6c269d3e30200fbe6cadb07ce7dd69fad11c",
    ("pattern", "--fc", "12.49", "--cost", "4.68", "--eq-tol", "1"):
        "1dbd7b4d9be0cf26cbbea36cf540c94031f6a7420ad58e35a67c9133c56f854f",
    # with a strictness slack: 2 matches, and 4 at the one-delta birth threshold
    ("pattern", "--fc", "12.49", "--cost", "4.68", "--eq-tol", "2", "--lt-tol", "1"):
        "65f27476dcdbcf4abaa2eceba7fed482995db6130786afdf83625a943b89b852",
    ("pattern", "--fc", "4.69", "--cost", "4.68", "--eq-tol", "3", "--lt-tol", "1"):
        "5ced2faf1b657d506d333271f4d55b044284b4c9a378db3fe72187c870a31d0f",
    ("mps", "--cost", "4.68", "--W", "3"):
        "fb9c7f727658319ceed640c75fcfd7c3ed24bc02bcfab2bc9ec1111748641d30",
    ("mps", "--cost", "4.68", "--W", "20"):
        "4ce498cf02543b7db308dcdc9e5ab6ae94d5436036a7727edaadf3d65d04fad4",
    ("mps", "--cost", "4.68", "--W", "500"):
        "08807e1adea40f799d0bebf2b28140a156665c7fd164d00299ee2ea009a83115",
}

# the same ticks with each session's lines in reverse: sessionize sorts them
# back, stably, so ticks that share a time keep their reversed order
UNORDERED_TICK_COMMANDS = {
    ("ote", "--fc", "49.99", "--cost", "4.68"):
        "f4a4535e0ea090ea590741fb73a2546f1a00c6636d36e592bdc35f8785ca51b9",
    ("pattern", "--fc", "12.49", "--cost", "4.68", "--eq-tol", "1"):
        "ac19a561086a4f5682939184e9b7e6c3d34c57e901cd9646638acb1c12a54fb9",
}

# 17 samples with decimals, thirds, negatives and ties, for ``stats``; the
# default bin count (6) differs from both pinned ones
SAMPLES = "1.25 -3.5 1/3 2\n-3.5 7.125 1/3\n0 2 2 -0.01 100.75\n2.5e1 -0.01 1/3\n-7 12.5\n"

SAMPLE_COMMANDS = {
    ("stats",):
        "7a3ad42d97f8b0770f80f372a763ca4c9fabb291e746409d2dfb905875feeb81",
    ("stats", "--bins", "1"):
        "74e28373d9c55aea4bd07fc5724b821005469b9eb320f66f1973f64cb538820a",
    ("stats", "--bins", "5"):
        "47523e56ab8124ac38796ed01b0adee1f8961951b366711f3f4deab9f709b147",
}

COMMANDS = {
    ("counts", "--W", "2", "--n", "5"):
        "4373ee59d50096624b5d7f81af6683c24cb5ff9e6edfb35bdf1f2de243501800",
    ("dist", "--W", "2", "--n", "5"):
        "832c16a200cb2118effc35e781b8a458978b62e36ff25c7d2413d99a7b020091",
    ("dist", "--W", "1", "--n", "2"):
        "9f4590ecbf83e1f13a4a44599fd60d4e65f8d7c3159e0ec42d56745778f4e78e",
    ("dist", "--W", "1", "--n", "3", "--format", "json"):
        "260ed687320f5609fa6bf3556b618b5fc6c1762b7f58e9127e9c7518da21b7a1",
    ("dist", "--W", "300", "--n", "40"):
        "510d9f9dc43b7b7b0e27d179f3206ba82a4d2478865a7def3b6c2817c3ee781b",
    ("dist", "--W", "6", "--n", "13"):
        "c643fd195236a3fe57aa254d1be5d9990b8a7800c59f1dea9e0276bdfc6b8751",
    # 80,001 rows, with pmf and cdf values far from any short decimal
    ("dist", "--W", "20000", "--n", "5"):
        "081731f786837a3496723579c8136cdd68347972eb4759eec9ac4a470104a7d1",
    ("dist", "--W", "20000", "--n", "5", "--format", "json"):
        "47934876d3fa8c65ada91ec6c82c9d61a60d6c2ec8cebe5705c167832e311e8f",
    ("dist", "--W", "3", "--n", "9", "--format", "json"):
        "a1a83580545d45723b82d91a79a9832313cb3ac877e170b0be3223c766a04758",
    ("magma-table", "--W", "3", "--op", "minus"):
        "6ccdcb9f38fa4181d5b5a4a7cf540ff25166a6027f6c17359c9e4b42c6d6b13a",
    ("magma-table", "--W", "1"):
        "2c05c8c0126aef6f4a142855f5ede800020223a2cf8377d5b413d9b27a959a02",
    ("magma-table", "--W", "40"):
        "fb38e8d7e2256d70d91201a4e5c30c1781bf75de32419466f01f017c11c185dd",
    ("magma-table", "--W", "40", "--op", "minus"):
        "4c558c7e7b67d1cda05ef2904094cf293bec8c54b60d33bc493703bab0b75727",
    ("rank", "--n", "8"):
        "26a1eae39b81e7130c255e2632274e92c5b9e02b9ecfdddf3340545ca0844473",
    ("verify", "--max-universe", "1000"):
        "c3fe3ca6756848b282f69b0232db86253f99c45a988338edd91d170e12b8188c",
    # the verify_1e6 benchmark command: 43 universes through the float32 sweep
    ("verify", "--max-universe", "1000000"):
        "a8ff7dcde353c32540640648e9cab87d0b56a948ccf6aceaac6d1e367dacf207",
}


def _stdout(argv, capsys) -> str:
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def _stdout_digest(argv, capsys) -> str:
    return hashlib.sha256(_stdout(argv, capsys).encode()).hexdigest()


def test_golden_stdout_digests(tmp_path, capsys):
    path = tmp_path / "ticks.txt"
    path.write_text(_tick_text())
    got = {argv: _stdout_digest(argv + (str(path),), capsys) for argv in TICK_COMMANDS}
    got.update((argv, _stdout_digest(argv, capsys)) for argv in COMMANDS)
    assert got == {**TICK_COMMANDS, **COMMANDS}


def test_golden_stats_digests(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text(SAMPLES)
    got = {argv: _stdout_digest(argv + (str(path),), capsys) for argv in SAMPLE_COMMANDS}
    assert got == SAMPLE_COMMANDS


def test_golden_stdout_digests_of_unordered_ticks(tmp_path, capsys):
    path = tmp_path / "ticks.txt"
    path.write_text(_tick_text(reverse_sessions=True))
    got = {argv: _stdout_digest(argv + (str(path),), capsys) for argv in UNORDERED_TICK_COMMANDS}
    assert got == UNORDERED_TICK_COMMANDS


def test_mps_builds_no_price_fraction_per_tick(tmp_path, capsys, monkeypatch):
    # mps reads the grid counts of the parsed columns, never their prices
    def no_price(self, i):
        raise AssertionError("TickColumns.price called")

    path = tmp_path / "ticks.txt"
    path.write_text(_tick_text())
    monkeypatch.setattr(TickColumns, "price", no_price)
    argv = ("mps", "--cost", "4.68", "--W", "3")
    assert _stdout_digest(argv + (str(path),), capsys) == TICK_COMMANDS[argv]


def test_all_indicative_ticks(tmp_path, capsys, es):
    lines = ["2017/04/10 09:00:00 2350.00 0", "2017/04/10 09:00:01 2350.25 0 E"]
    traded = trade_ticks(parse_ticks(lines, es))
    assert isinstance(traded, TickColumns) and len(traded) == 0
    assert (traded.times, traded.deltas, traded.sizes, traded.conditions) == ([], [], [], [])
    path = tmp_path / "ticks.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["ote", "--fc", "49.99", "--cost", "4.68", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "#\tt_start\tP_start\tt_end\tP_end\tdt_s\tPL\tType\n"


def test_mps_output_is_certified_from_its_lines_alone(tmp_path, capsys, es):
    # the printed pl=, action and trade lines, against the traded ticks of
    # the file in stable time order, make an optimal strategy of the W = 3
    # universe: `_certify` holds a tube path whose variation bounds every one
    path = tmp_path / "ticks.txt"
    path.write_text(_tick_text())
    assert main(["mps", "--cost", "4.68", "--W", "3", str(path)]) == 0
    pl_line, count_line, *lines = capsys.readouterr().out.splitlines()
    traded = sorted((fields for fields in map(str.split, _tick_text().splitlines())
                     if fields[3] != "0"), key=lambda fields: fields[:2])
    actions, trades = [0] * len(traded), []
    for kind, *fields in (line.split("\t") for line in lines):
        if kind == "action":
            actions[int(fields[0])] = int(fields[1])
        else:
            assert kind == "trade"
            trades.append(MpsTrade(int(fields[0]), int(fields[1]),
                                   {"long": 1, "short": -1}[fields[2]]))
    positions = list(accumulate(actions))
    assert max(map(abs, positions)) <= 3 and positions[-1] == 0
    # the trades, each W contracts in and out, are the printed actions
    for t in trades:
        positions[t.start:t.end] = (w - 3 * t.direction for w in positions[t.start:t.end])
    assert not any(positions)
    assert count_line == f"transactions={sum(1 for a in actions if a)}"
    assert pl_line.startswith("pl=") and len(trades) > 100
    result = MpsResult(Strategy(actions), Fraction(pl_line[3:]), tuple(trades))
    _certify([Fraction(fields[2]) for fields in traded], Fraction("4.68"), 3, es, result)


def test_ote_chains_of_the_golden_sessions_are_certified(es):
    # each session's OTE records, priced at the filtering cost FC, are the
    # trades of an optimal W = 1 strategy at cost FC
    ticks = trade_ticks(parse_ticks(_tick_text().splitlines(), es))
    quoted = ContractSpec(es.symbol, es.delta_dollars, 1)       # prices in grid counts
    sessions = sessionize(ticks).sessions
    assert len(sessions) == 2
    for fc in (Fraction("49.99"), Fraction("12.49"), Fraction("4.69")):
        for session in sessions:
            deltas, actions, trades = session.ticks.deltas, [0] * len(session.ticks), []
            for r in extract_otes(session.ticks, fc, Fraction("4.68"), es):
                trade = MpsTrade(r.start, r.stop - 1, 1 if r.ote_type is OteType.BOTE else -1)
                actions[trade.start] += trade.direction
                actions[trade.end] -= trade.direction
                trades.append(trade)
            pl = sum(t.direction * (deltas[t.end] - deltas[t.start]) * es.delta_dollars - 2 * fc
                     for t in trades)
            _certify(deltas, fc, 1, quoted, MpsResult(Strategy(actions), pl, tuple(trades)))


def test_mirrored_golden_ticks_swap_the_ote_types_and_keep_the_mps_profit(tmp_path, capsys, es):
    # every price P -> 4700 - P, the mirror about 2350, with the same times and sizes
    path, mirror = tmp_path / "ticks.txt", tmp_path / "mirrored.txt"
    path.write_text(_tick_text())
    ticks = parse_ticks(_tick_text().splitlines(), es)
    mirror.write_text(serialize_ticks([t._replace(price=4700 - t.price) for t in ticks]))
    swap = {"BOTE": "SOTE", "SOTE": "BOTE"}

    def mapped_back(line: str) -> str:
        fields = line.split("\t")
        if len(fields) != 8 or fields[0] == "#":        # not a row of the OTE table
            return line
        fields[2], fields[4] = (fmt_price(4700 - Fraction(p), es.delta) for p in fields[2:5:2])
        return "\t".join([*fields[:7], swap[fields[7]]])

    argv = ("ote", "--fc", "49.99", "--cost", "4.68")
    original, mirrored = (_stdout(argv + (str(p),), capsys).splitlines() for p in (path, mirror))
    assert list(map(mapped_back, mirrored)) == original
    assert sum(line != mapped_back(line) for line in mirrored) >= 20     # the 22 OTE rows
    argv = ("mps", "--cost", "4.68", "--W", "3")
    for p in (path, mirror):
        assert _stdout(argv + (str(p),), capsys).startswith("pl=32457.78\n")


def test_golden_ticks_reversed_in_time_keep_the_mps_profit(tmp_path, capsys, es):
    # t -> t_first + t_last - t, the lines in reverse order: the traded
    # prices come in reverse, and mps0's profit does not change
    ticks = list(parse_ticks(_tick_text().splitlines(), es))
    first, last = ticks[0].timestamp, ticks[-1].timestamp
    path, reversed_path = tmp_path / "ticks.txt", tmp_path / "reversed.txt"
    path.write_text(_tick_text())
    reversed_path.write_text(serialize_ticks([t._replace(timestamp=first + (last - t.timestamp))
                                              for t in reversed(ticks)]))
    for limit, pl in (("1", "10819.26"), ("3", "32457.78"), ("20", "216385.20")):
        argv = ("mps", "--cost", "4.68", "--W", limit)
        for p in (path, reversed_path):
            assert _stdout(argv + (str(p),), capsys).startswith(f"pl={pl}\n")
