"""CLI subcommands: outputs, determinism, exit codes."""

import json
import random
from datetime import datetime, timedelta
from itertools import accumulate

from conftest import ticks_from_deltas, zigzag_levels
from mpslab import (PRESETS, Tick, Tolerances, extract_otes, serialize_ticks,
                    sessionize)
from mpslab.cli import main
from mpslab.ingest import TickColumns
from mpslab.numeric import fmt_price
from mpslab.ote import HeadShouldersMonitor


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts(capsys):
    code, out, _ = run(capsys, ["counts", "--W", "1", "--n", "3"])
    assert code == 0
    assert "strategies=9" in out
    assert "do_nothing=9" in out
    assert "transactions=18" in out


def test_counts_json(capsys):
    code, out, _ = run(capsys, ["counts", "--W", "2", "--n", "4", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["strategies"] == 125


def test_dist_table(capsys):
    code, out, _ = run(capsys, ["dist", "--W", "1", "--n", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m\tcount\tpmf\tcdf"
    assert len(lines) == 6   # 4W+1 rows + header
    last = lines[-1].split("\t")
    assert last[0] == "2" and last[3] == "1.0"


def test_dist_pmf_sums_to_one(capsys):
    code, out, _ = run(capsys, ["dist", "--W", "2", "--n", "5", "--format", "json"])
    rows = json.loads(out)
    assert abs(sum(r["pmf"] for r in rows) - 1.0) < 1e-12
    assert len(rows) == 9


def test_output_determinism(capsys):
    _, first, _ = run(capsys, ["dist", "--W", "1", "--n", "6"])
    _, second, _ = run(capsys, ["dist", "--W", "1", "--n", "6"])
    assert first == second


def test_verify_small(capsys):
    code, out, _ = run(capsys, ["verify", "--max-universe", "200"])
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_magma_table(capsys):
    code, out, _ = run(capsys, ["magma-table", "--W", "3", "--op", "minus"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    first_row = lines[1].split("\t")
    assert first_row[0] == "-3" and first_row[1] == "0" and first_row[-1] == "n/a"


def test_rank(capsys):
    code, out, _ = run(capsys, ["rank", "--n", "8"])
    assert code == 0 and out.strip() == "rank=7"


def test_rank_over_its_bound_is_refused_before_the_basis_is_built(capsys, monkeypatch):
    # the exact rank costs n^2 Fractions; the bound itself still runs
    from mpslab import cli, vectors
    calls = []
    monkeypatch.setattr(vectors, "rank_of_universe", lambda n: calls.append(n) or n - 1)
    bound = cli.MAX_RANK_N
    assert run(capsys, ["rank", "--n", str(bound)]) == (0, f"rank={bound - 1}\n", "")
    code, out, err = run(capsys, ["rank", "--n", str(bound + 1)])
    assert (code, out) == (2, "")
    assert err == f"budget refused: n = {bound + 1}, over the limit of {bound}\n"
    assert calls == [bound]


def test_mps_inline_prices(capsys):
    code, out, _ = run(capsys, ["mps", "--contract", "ES", "--cost", "5",
                                "--prices", "2369.50,2369.75,2370.00"])
    assert code == 0
    assert "pl=15.00" in out
    assert "strategy=1,0,-1" in out
    assert "trade\t0\t2\tlong" in out


def test_mps_requires_input(capsys):
    code, _, err = run(capsys, ["mps", "--cost", "5"])
    assert code == 1
    assert "prices" in err


def _ordered_and_shuffled(tmp_path, rng, n=400):
    """Tick files of one seeded ES walk, one tick per second and some
    indicative, so that no two ticks share a time: in time order, and with
    the lines shuffled."""
    levels = list(accumulate(rng.choice((-1, 1)) for _ in range(n)))
    ticks = ticks_from_deltas(levels, PRESETS["ES"], step_seconds=1,
                              sizes=[rng.choice((0, 1, 2, 3)) for _ in levels])
    lines = serialize_ticks(ticks).splitlines(keepends=True)
    ordered, shuffled = tmp_path / "ordered.tsv", tmp_path / "shuffled.tsv"
    ordered.write_text("".join(lines))
    rng.shuffle(lines)
    shuffled.write_text("".join(lines))
    return ordered, shuffled


def test_mps_takes_file_ticks_in_time_order(tmp_path, capsys):
    lines = ["2017/04/10 09:00:00 2349.50 1\n", "2017/04/10 09:00:01 2350.00 1\n",
             "2017/04/10 09:00:02 2350.50 1\n", "2017/04/10 09:00:03 2351.50 1\n"]
    path = tmp_path / "ticks.tsv"
    path.write_text("".join([lines[2], lines[0], lines[1], lines[3]]))
    assert run(capsys, ["mps", "--cost", "1", str(path)]) == \
        (0, "pl=98.00\nstrategy=1,0,0,-1\ntrade\t0\t3\tlong\n", "")
    for seed in range(3):
        ordered, shuffled = _ordered_and_shuffled(tmp_path, random.Random(seed))
        for w in ("1", "3"):
            argv = ["mps", "--cost", "4.68", "--W", w]
            expected = run(capsys, argv + [str(ordered)])
            assert expected[0] == 0 and "trade\t" in expected[1]
            assert run(capsys, argv + [str(shuffled)]) == expected


def test_contract_without_session_window_sorts_ticks(tmp_path, capsys):
    config = tmp_path / "contracts.ini"
    config.write_text("[NW]\nk = 50\ndelta = 0.25\n")
    ordered, shuffled = _ordered_and_shuffled(tmp_path, random.Random(0))
    for argv in (["ote", "--fc", "12.49", "--cost", "4.68"],
                 ["pattern", "--fc", "12.49", "--cost", "4.68", "--eq-tol", "1"]):
        # every tick lies inside the ES window, so ES gives the same output
        expected = run(capsys, argv + [str(ordered)])
        assert expected[0] == 0 and expected[2] == ""
        assert "SOTE" in expected[1] or "# 1 matches" in expected[1]
        argv += ["--contract", "NW", "--config", str(config)]
        assert run(capsys, argv + [str(ordered)]) == expected
        assert run(capsys, argv + [str(shuffled)]) == expected


def _run_with_window(tmp_path, capsys, window: str):
    """``ote`` and ``pattern`` results on a two-tick file for a config
    contract HALF with the given session keys."""
    path, config = tmp_path / "ticks.tsv", tmp_path / "contracts.ini"
    path.write_text("2017/04/10 09:30:00 2350.00 1\n2017/04/10 09:30:01 2350.25 1\n")
    config.write_text("[HALF]\nk = 50\ndelta = 0.25\n" + window)
    return [run(capsys, [command, "--fc", "1", "--cost", "0.5", "--contract", "HALF",
                         "--config", str(config), str(path)])
            for command in ("ote", "pattern")]


def test_session_window_that_opens_at_its_close_is_refused(tmp_path, capsys):
    results = _run_with_window(tmp_path, capsys, "session_open = 09:30\nsession_close = 09:30\n")
    assert results == [(1, "", "error: session open and close must differ\n")] * 2


def test_session_window_with_one_end_is_refused(tmp_path, capsys):
    for key, other in (("session_open", "session_close"), ("session_close", "session_open")):
        results = _run_with_window(tmp_path, capsys, f"{key} = 09:30\n")
        message = f"error: contract HALF has no {other} for its session window\n"
        assert results == [(1, "", message)] * 2


def test_malformed_config_is_one_error_line(tmp_path, capsys):
    path, config = tmp_path / "ticks.tsv", tmp_path / "contracts.ini"
    path.write_text("2017/04/10 09:30:00 2350.00 1\n")
    cases = {
        "[NK]\ndelta = 5\n": "contract NK has no k",
        "[NK]\nk = 500\n": "contract NK has no delta",
        "k = 500\ndelta = 5\n":
            f"bad config: File contains no section headers. file: {str(config)!r}, "
            "line: 1 'k = 500\\n'",
        "[NK]\nk = 500\ndelta = 5\nsession_open = 25:00\nsession_close = 15:15\n":
            "contract NK: bad session_open '25:00': hour must be in 0..23",
        "[NK]\nk = 500%\ndelta = 5\n":
            "contract NK: bad k '500%': Invalid literal for Fraction: '500%'",
        "[NK]\nk = 0\ndelta = 5\n": "contract NK: k must be positive",
        "[NK]\nk = 500\ndelta = -1/4\n": "contract NK: delta must be positive",
        "[NK]\nk = 500\ndelta = 5\nsession_open = 1:2:3:4:5\nsession_close = 15:15\n":
            "contract NK: bad session_open '1:2:3:4:5': a clock is H:M or H:M:S",
        # four fields were read as microseconds, 09:30:00.000005
        "[NK]\nk = 500\ndelta = 5\nsession_open = 9:30:00:5\nsession_close = 15:15\n":
            "contract NK: bad session_open '9:30:00:5': a clock is H:M or H:M:S",
        "[NK]\nk = 500\ndelta = 5\nsession_open = 17:00\nsession_close = 15\n":
            "contract NK: bad session_close '15': a clock is H:M or H:M:S",
    }
    for text, message in cases.items():
        config.write_text(text)
        for argv in (["ote", "--fc", "1", "--cost", "0.5"],
                     ["pattern", "--fc", "1", "--cost", "0.5"], ["mps", "--cost", "0.5"]):
            argv += ["--contract", "NK", "--config", str(config), str(path)]
            assert run(capsys, argv) == (1, "", f"error: {message}\n"), argv


def test_ote_pipeline(tmp_path, capsys):
    es = PRESETS["ES"]
    ticks = ticks_from_deltas(zigzag_levels([0, 8, 0, 8, 0, 8, 0]), es)
    path = tmp_path / "ticks.tsv"
    path.write_text(serialize_ticks(ticks))
    code, out, _ = run(capsys, ["ote", "--contract", "ES", "--fc", "49.99",
                                "--cost", "4.68", str(path)])
    assert code == 0
    assert "BOTE" in out and "SOTE" in out
    assert "90.64" in out
    assert "PL distribution" in out
    assert "# ECDF" in out


def test_ote_budget_and_validation_errors(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("2017/04/10 09:00:00 2342.10 1\n")
    code, _, err = run(capsys, ["ote", "--fc", "100", "--cost", "4.68", str(path)])
    assert code == 1
    assert "delta" in err or "0.25" in err or "1/4" in err


def test_ote_refuses_exponent_prices(tmp_path, capsys):
    path = tmp_path / "exponent.tsv"
    path.write_text("2017/04/10 09:00:00 2342 1\n2017/04/10 09:00:01 1e300000 1\n")
    code, out, err = run(capsys, ["ote", "--fc", "100", "--cost", "4.68", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2")


def test_counts_and_dist_refuse_unprintable_universes(capsys):
    for command in ("counts", "dist"):
        code, out, err = run(capsys, [command, "--W", "1", "--n", "100000"])
        assert (code, out) == (2, "")
        assert err.startswith("budget refused:") and "47717 digits" in err
        # an n past the float range is refused too, not a traceback
        code, out, err = run(capsys, [command, "--W", "1", "--n", str(10 ** 400)])
        assert (code, out) == (2, "") and err.startswith("budget refused:")
    # 9005 * 3^9004 has 4300 digits, the default limit; one tick more has 4301
    assert run(capsys, ["counts", "--W", "1", "--n", "9005"])[0] == 0
    assert run(capsys, ["counts", "--W", "1", "--n", "9006"])[0] == 2
    code, out, _ = run(capsys, ["counts", "--W", "1", "--n", "3000"])
    assert code == 0 and out.startswith("strategies=")


def test_stats_block(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(["403.14", "453.14", "665.64", "778.14",
                               "615.64", "265.64", "278.14", "453.14"]))
    code, out, _ = run(capsys, ["stats", "--metric", "profit", str(path)])
    assert code == 0
    assert "Mean                = 489.0775" in out
    assert "Samples size        = 8" in out
    assert "Maximum value       = 778.14" in out


def test_pattern_scan(tmp_path, capsys):
    es = PRESETS["ES"]
    ticks = ticks_from_deltas(zigzag_levels([0, 20, 8, 26, 8, 24, 14]), es)
    path = tmp_path / "ticks.tsv"
    path.write_text(serialize_ticks(ticks))
    code, out, _ = run(capsys, ["pattern", "--contract", "ES", "--fc", "49.99",
                                "--cost", "4.68", str(path)])
    assert code == 0
    assert "# 1 matches" in out


def test_out_file_and_plot_stub(tmp_path, capsys):
    target = tmp_path / "dist.tsv"
    code, out, _ = run(capsys, ["dist", "--W", "1", "--n", "3",
                                "--out", str(target), "--emit-plot"])
    assert code == 0
    assert out == ""
    assert target.exists()
    assert (tmp_path / "dist.tsv.gp").exists()
    assert "plot" in (tmp_path / "dist.tsv.gp").read_text()


def test_unknown_contract(capsys):
    code, _, err = run(capsys, ["mps", "--contract", "ZZ", "--cost", "1",
                                "--prices", "1,2"])
    assert code == 1
    assert "unknown contract" in err


def _reference_pattern(ticks, fc, cost, tol):
    """The pattern scan as it was: every session tick whose time lies in
    [t_birth, t_end] of the window's last trade, in order."""
    es = PRESETS["ES"]
    lines, hits = ["session\twindow_end\tmatched_at\tprice"], 0
    for session in sessionize(TickColumns.of(ticks, es)).sessions:
        records = extract_otes(list(session.ticks), fc, cost, es)
        for end in range(6, len(records) + 1):
            try:
                monitor = HeadShouldersMonitor(records[end - 6:end], tol, es)
            except ValueError:
                continue
            if not monitor.fixed_ok:
                continue
            current = records[end - 1]
            span = [t for t in session.ticks if current.t_birth <= t.timestamp <= current.t_end]
            for tick in span:
                if monitor.check(tick.price):
                    hits += 1
                    lines.append("\t".join([str(session.day), str(end),
                                            tick.timestamp.strftime("%Y-%m-%d %H:%M:%S"),
                                            fmt_price(tick.price, es.delta)]))
                    break
    return "\n".join(lines + [f"# {hits} matches"]) + "\n"


def _timed_ticks(levels_seconds, es):
    start = datetime(2017, 4, 10, 9, 0, 0)
    return [Tick(start + timedelta(seconds=sec), (9000 + level) * es.delta, 1)
            for level, sec in levels_seconds]


def _pattern_out(tmp_path, capsys, ticks, fc="49.99"):
    path = tmp_path / "ticks.tsv"
    path.write_text(serialize_ticks(ticks))
    code, out, _ = run(capsys, ["pattern", "--contract", "ES", "--fc", fc, "--cost", "4.68",
                                "--eq-tol", "1", str(path)])
    assert code == 0
    return out


def test_pattern_scan_takes_same_second_ticks_at_both_span_edges(tmp_path, capsys):
    es = PRESETS["ES"]
    # B1 0->20, S2 ->8, B3 ->26, S4 ->9, B5 ->24 (born at 17), then S6
    head = zigzag_levels([0, 20, 8, 26, 9, 24])
    # S6 is born at 16; the tick at 17 just before shares the birth's second
    before = [(lv, j) for j, lv in enumerate(head + [23, 22, 21, 20, 19, 18])]
    leading = _timed_ticks(before + [(17, 99), (16, 99), (15, 100), (14, 101)], es)
    # S6 gaps down to 13 (born there), bottoms at 10 and ends there; the
    # next tick, at 17 in the end's second, is the only match and sits past
    # the end
    trailing = _timed_ticks([(lv, j) for j, lv in enumerate(head)]
                            + [(13, 90), (11, 91), (10, 92), (17, 92), (18, 93)], es)
    for ticks in (leading, trailing):
        out = _pattern_out(tmp_path, capsys, ticks)
        assert out == _reference_pattern(ticks, "49.99", "4.68", Tolerances(1, 0))
        assert "# 1 matches" in out
        assert out.splitlines()[1].endswith("\t" + fmt_price(es.delta * 9017, es.delta))


def test_pattern_scan_matches_reference_on_crowded_seconds(tmp_path, capsys):
    es = PRESETS["ES"]
    rng = random.Random(8)
    total = 0
    for _ in range(4):
        level, sec, steps = 0, 0, []
        for _ in range(3000):
            level += rng.choice([-2, -1, -1, 0, 1, 1, 2])
            sec += rng.choice([0, 0, 1])
            steps.append((level, sec))
        ticks = _timed_ticks(steps, es)
        out = _pattern_out(tmp_path, capsys, ticks, fc="12.49")
        assert out == _reference_pattern(ticks, "12.49", "4.68", Tolerances(1, 0))
        total += int(out.splitlines()[-1].split()[1])
    assert total > 0


def test_argument_checks_run_before_dispatch(capsys):
    cases = [(["ote", "--fc", "-1", "--cost", "1", "missing.tsv"], "filtering cost must be"),
             (["ote", "--fc", "1", "--cost", "-1", "missing.tsv"], "cost must be non-negative"),
             (["ote", "--fc", "1", "--cost", "0.5", "--bins", "0", "missing.tsv"],
              "bin count must be >= 1"),
             (["pattern", "--fc", "1", "--cost", "0.5", "--eq-tol", "-1", "missing.tsv"],
              "tolerances must be non-negative"),
             (["verify", "--max-universe", "0"], "budget must be positive"),
             (["counts", "--W", "0", "--n", "3"], "position limit W must be >= 1"),
             (["rank", "--n", "1"], "tick count n must be >= 2")]
    for argv, message in cases:
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


def test_cost_at_or_above_fc_is_refused_whatever_the_ticks(tmp_path, capsys):
    empty, gap_only = tmp_path / "empty.tsv", tmp_path / "gap.tsv"
    empty.write_text("")
    gap_only.write_text("2017/04/10 15:30:00 2342.00 1\n2017/04/10 16:59:00 2342.25 2\n")
    for command in ("ote", "pattern"):
        for path in (empty, gap_only):
            for cost in ("4.68", "4"):
                code, out, err = run(capsys, [command, "--fc", "4", "--cost", cost, str(path)])
                assert (code, out) == (1, ""), (command, path.name, cost)
                assert err == "error: actual cost C must be below the filtering cost FC\n"
            assert run(capsys, [command, "--fc", "4", "--cost", "3.99", str(path)])[0] == 0


def test_mps_refuses_oversized_tables(capsys, monkeypatch):
    # a huge limit costs nothing more: the P&L is W times that at W = 1
    code, out, err = run(capsys, ["mps", "--contract", "ES", "--cost", "1",
                                  "--W", "1000000000000", "--prices", "2370,2371"])
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["pl=48000000000000.00",
                                    "strategy=1000000000000,-1000000000000"]
    assert run(capsys, ["mps", "--contract", "ES", "--cost", "1",
                        "--prices", "2370,2371"])[1].startswith("pl=48.00\n")
    # too many prices is refused before any work, whatever the limit
    from mpslab import mps
    monkeypatch.setattr(mps, "MAX_PRICES", 2)
    code, out, err = run(capsys, ["mps", "--contract", "ES", "--cost", "1",
                                  "--prices", "2370,2371,2372"])
    assert (code, out) == (2, "")
    assert err == "budget refused: 3 prices, over the limit of 2\n"


def test_cli_numbers_refuse_huge_exponents(tmp_path, capsys):
    # Fraction('1e3000000') builds a 3-million-digit power of ten first
    ticks = tmp_path / "ticks.tsv"
    ticks.write_text("2017/04/10 09:00:00 2342 1\n")
    for argv in (["mps", "--cost", "1e3000000", "--prices", "2369.50,2369.75"],
                 ["mps", "--cost", "1", "--prices", "2369.50,1E3000000"],
                 ["ote", "--fc", "1e-3000000", "--cost", "1", str(ticks)],
                 ["pattern", "--fc", "1", "--cost", "1e1000000", str(ticks)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: exponent out of range in '1")
    samples = tmp_path / "samples.txt"
    samples.write_text("1.5\n2 1e3000000\n")
    code, out, err = run(capsys, ["stats", str(samples)])
    assert (code, out) == (1, "")
    assert err == "error: line 2: exponent out of range in '1e3000000' (limit 400)\n"


def test_stats_reads_float_reprs_and_numbers_bad_lines(tmp_path, capsys):
    # fmt_dollars prints repr(float) off the cent, so ote output can hold 1e-05
    samples = tmp_path / "samples.txt"
    samples.write_text("1e-05 2.5\n\n1e+30\n")
    code, out, _ = run(capsys, ["stats", str(samples)])
    assert code == 0 and "Samples size        = 3" in out
    for text, bad in [("1.5\nabc\n", "line 2: not a number: 'abc'"),
                      ("1.5\n\n2 1/0\n", "line 3: not a number: '1/0'")]:
        samples.write_text(text)
        code, out, err = run(capsys, ["stats", str(samples)])
        assert (code, out, err) == (1, "", f"error: {bad}\n")


def test_stats_refuses_samples_too_large_for_floats(tmp_path, capsys):
    # the variance of (1e+155, 2) is past the float range, that of (1e+150, 2) is not
    samples = tmp_path / "samples.txt"
    for text in ("1e+155\n2\n", "1e+155\n2\n3\n-4\n", "1e+309\n1e+309\n",
                 str(10 ** 400) + "\n1\n"):
        samples.write_text(text)
        code, out, err = run(capsys, ["stats", str(samples)])
        assert (code, out, err) == (1, "", "error: samples too large for float statistics\n")
    samples.write_text("1e+150\n2\n")
    code, out, _ = run(capsys, ["stats", str(samples)])
    assert code == 0 and "Mean                = 5e+149" in out


def test_stats_skewness_where_the_float_variance_underflows(tmp_path, capsys):
    # m2 > 0 rounds to 0.0: skewness sqrt(3) from the exact ratio, not a traceback
    samples = tmp_path / "samples.txt"
    samples.write_text("0 0 1e-300\n")
    code, out, _ = run(capsys, ["stats", str(samples)])
    assert code == 0 and "Skewness            = 1.7320508075688772\n" in out


def test_bad_cost_text_is_named_not_a_traceback(capsys):
    for text in ("abc", "1/0"):
        code, out, err = run(capsys, ["mps", "--cost", text, "--prices", "2370"])
        assert (code, out, err) == (1, "", f"error: not a number: {text!r}\n")


def test_session_past_year_9999_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "last.tsv"
    path.write_text("9999/12/31 17:00:00 2350 1\n9999/12/31 18:00:00 2351 1\n"
                    "9999/12/31 19:00:00 2349 1\n")
    for command in ("ote", "pattern"):
        code, out, err = run(capsys, [command, "--fc", "1", "--cost", "0.5", str(path)])
        assert (code, out) == (1, "")
        assert err == ("error: tick at 9999-12-31 17:00:00 is in a session that closes "
                       "after 9999-12-31, the last date\n")
    # the same day before the open is still a session
    path.write_text("9999/12/31 09:00:00 2350 1\n9999/12/31 10:00:00 2351 1\n")
    assert run(capsys, ["ote", "--fc", "1", "--cost", "0.5", str(path)])[0] == 0
