"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; most checks are exact.
"""

import random
import time
from fractions import Fraction

from conftest import char_fn_curvature, records_values, ticks_from_deltas, zigzag_levels
from mpslab import (CostModel, PRESETS, Strategy, brute_force_mps,
                    birth_threshold, cayley_stats, char_fn, extract_otes,
                    gen_family, iter_strategies, action_cdf, action_count,
                    action_pmf, abs_action_cov, moment, mps0, ominus,
                    on_permitted_grid, oplus, ote_stats,
                    max_orthogonal_subset, permitted_profit_grid,
                    positions_oplus, positions_to_strategy, pl,
                    rank_of_universe, strategies_compose,
                    strategy_to_positions, validate_membership)
from mpslab.distribution import UniverseParams, variance
from mpslab.magma import CappedInt
from mpslab.ote import OteType
from mpslab.vectors import dot
from mpslab.verify import verify_matrix

ES = PRESETS["ES"]


def report(number: int, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status}{(' - ' + detail) if detail else ''}")
    return ok


def test_criterion_01_worked_pl_example():
    out = pl(("2369.50", "2369.75", "2370.00"), Strategy((1, 0, -1)),
             CostModel.constant(5, 3), ES)
    assert report(1, out.pl_total == 15, "PL(worked ES example) = $15.00 exactly")


def test_criterion_02_action_count_goldens():
    row = [action_count(-3, UniverseParams(3, n)) for n in range(2, 8)]
    profile = [action_count(m, UniverseParams(1, 3)) for m in range(-2, 3)]
    ok = row == [2, 18, 154, 1274, 10290, 81634] and profile == [1, 8, 9, 8, 1]
    assert report(2, ok, "W=3 m=-3 column and W=1 n=3 profile exact")


def test_criterion_03_oracle_equivalence_matrix():
    t0 = time.time()
    results = verify_matrix(10 ** 6)
    elapsed = time.time() - t0
    failures = [r for r in results if not r.ok]
    pairs = {(r.limit, r.n) for r in results}
    required = ({(1, n) for n in range(2, 14)} | {(2, n) for n in range(2, 10)}
                | {(3, n) for n in range(2, 9)} | {(4, n) for n in range(2, 8)})
    ok = not failures and required <= pairs and elapsed < 300
    assert report(3, ok,
                  f"{len(results)} exact checks over {len(pairs)} universes in {elapsed:.1f}s")
    assert not failures, failures[:5]


def test_criterion_04_covariance_goldens():
    ok = True
    n4 = UniverseParams(1, 4)
    ok &= abs_action_cov(1, 2, n4) == 18 and abs_action_cov(1, 3, n4) == 16
    ok &= abs_action_cov(1, 4, n4) == 12 and abs_action_cov(2, 3, n4) == 22
    n7 = UniverseParams(3, 7)
    ok &= abs_action_cov(1, 2, n7) == 518616 and abs_action_cov(1, 3, n7) == 460992
    ok &= abs_action_cov(1, 7, n7) == 345744 and abs_action_cov(2, 3, n7) == 643468
    ok &= abs_action_cov(2, 4, n7) == 614656
    row_a = {1: 2, 2: 10, 3: 28, 4: 60, 5: 110, 6: 182, 7: 280, 8: 408, 9: 570, 10: 770}
    ok &= all(abs_action_cov(1, 2, UniverseParams(w, 2)) == v for w, v in row_a.items())
    assert report(4, ok, "printed covariance matrices and Theorem-A row exact")


def test_criterion_05_distribution_calculus():
    ok = True
    pairs = [(w, n) for w in (1, 2, 3, 4) for n in (2, 3, 5, 8, 13)]
    for w, n in pairs:
        p = UniverseParams(w, n)
        pmf = action_pmf(p)
        ok &= sum(pmf.values()) == 1
        ok &= len(pmf) == 4 * w + 1
        ok &= action_cdf(-2 * w - 1, p) == 0 and action_cdf(2 * w, p) == 1
        ok &= char_fn(0.0, p) == 1.0
        ok &= abs(char_fn_curvature(p) - float(moment(2, p))) < 1e-8
        ok &= moment(1, p) == 0 and moment(3, p) == 0 and moment(5, p) == 0
        ok &= moment(2, p) == variance(p)
    # exact empirical second moment on small universes
    for w, n in ((1, 3), (1, 6), (2, 4), (3, 3)):
        p = UniverseParams(w, n)
        total = sq = 0
        for s in iter_strategies(p):
            for u in s.actions:
                total += 1
                sq += u * u
        ok &= moment(2, p) == Fraction(sq, total)
    assert report(5, ok, f"PMF/CDF/CF/moments over {len(pairs)} (W,n) pairs")


def test_criterion_06_mps0_optimality():
    rng = random.Random(134908)
    t0 = time.time()
    ok = True
    for trial in range(200):
        n = rng.randint(2, 8)
        limit = rng.randint(1, 2)
        level = 9000
        prices = []
        for _ in range(n):
            level += rng.randint(-5, 5)
            prices.append(Fraction(level, 4))
        cost = Fraction(rng.randint(0, 1500), 100)
        got = mps0(prices, cost, limit, ES)
        expected = brute_force_mps(prices, CostModel.constant(cost, n),
                                   UniverseParams(limit, n), k=ES.k)
        ok &= got.pl == expected.best_pl
        ok &= validate_membership(got.strategy, limit)
    elapsed = time.time() - t0
    assert report(6, ok and elapsed < 30,
                  f"200 random instances exact to the cent in {elapsed:.1f}s")


def test_criterion_07_magma_suite():
    ok = True
    for w in range(1, 6):
        values = [CappedInt(v, w) for v in range(-w, w + 1)]
        zero = CappedInt(0, w)
        clamped = ordinary = undefined = 0
        for a in values:
            ok &= oplus(a, zero) == a
            ok &= [b for b in values if oplus(a, b) == zero] == [-a]
            for b in values:
                r = oplus(a, b)
                ok &= r == oplus(b, a)
                ok &= -r == oplus(-a, -b)
                if r.value == a.value + b.value:
                    ordinary += 1
                else:
                    clamped += 1
                if ominus(a, b) is None:
                    undefined += 1
        stats = cayley_stats(w)
        ok &= clamped == stats.clamped == w * (w + 1)
        ok &= ordinary == stats.ordinary == 3 * w * w + 3 * w + 1
        ok &= undefined == stats.undefined_sub == w * (w + 1)
        # non-associativity witness
        a, b, d = CappedInt(1, w), CappedInt(w, w), CappedInt(-1, w)
        ok &= oplus(oplus(a, b), d) != oplus(a, oplus(b, d))
    for n in range(2, 5):
        strategies = list(iter_strategies(UniverseParams(1, n)))
        for a in strategies:
            for b in strategies:
                via = positions_to_strategy(positions_oplus(
                    strategy_to_positions(a), strategy_to_positions(b), 1))
                ok &= strategies_compose(a, b, 1) == via
    assert report(7, ok, "exhaustive W<=5 laws; compose == positions route (W=1, n<=4)")


def test_criterion_08_vector_suite():
    ok = all(rank_of_universe(n) == n - 1 for n in range(2, 9))
    ok &= max_orthogonal_subset(5).size == 3
    ok &= max_orthogonal_subset(7).size == 5
    for n in range(2, 13):
        eta = gen_family("eta", n).members
        lam = gen_family("lambda", n).members if n >= 4 else ()
        nu = gen_family("nu", n).members if n >= 6 else ()
        theta = gen_family("theta", n).members if n % 2 else ()
        ok &= all(dot(a.actions, b.actions) == 0
                  for a in eta for b in (*lam, *nu, *theta))
        # theta _|_ lambda holds where supports are disjoint; at n=5 and 9
        # the center triple overlaps one lambda vector with dot -2
        if theta and lam:
            dots = sorted(dot(a.actions, b.actions) for a in theta for b in lam)
            if n in (5, 9):
                ok &= dots[0] == -2 and all(d == 0 for d in dots[1:])
            else:
                ok &= all(d == 0 for d in dots)
        if lam and nu:
            ok &= any(dot(a.actions, b.actions) != 0 for a in lam for b in nu)
    theta7, nu7 = gen_family("theta", 7).members, gen_family("nu", 7).members
    ok &= any(dot(a.actions, b.actions) != 0 for a in theta7 for b in nu7)
    for w, n in ((1, 5), (2, 3), (1, 7)):
        flat = [3] * n
        ok &= all(dot(flat, s.actions) == 0
                  for s in iter_strategies(UniverseParams(w, n)))
    assert report(8, ok, "rank, maximal orthogonal subsets, family table, flat price")


def test_criterion_09_birth_threshold():
    ok = (birth_threshold("100", ES) == 17
          and birth_threshold("74.99", ES) == 12
          and birth_threshold("0", ES) == 1)
    assert report(9, ok, "17 / 12 / 1 deltas exactly")


def test_criterion_10_permitted_grid():
    grid = permitted_profit_grid("49.99", "4.68", ES, 5)
    ok = grid[0] == Fraction("90.64")
    ok &= all(b - a == Fraction("12.50") for a, b in zip(grid, grid[1:]))
    levels = zigzag_levels([0, 9, 0, 11, 1, 9, 0])
    records = extract_otes(ticks_from_deltas(levels, ES), "49.99", "4.68", ES)
    ok &= len(records) > 0
    ok &= all(on_permitted_grid(r.pl, "49.99", "4.68", ES) for r in records)
    assert report(10, ok, "grid starts 90.64 step 12.50; synthetic profits on grid")


def test_criterion_11_ote_stats_goldens():
    profits = [Fraction(x) for x in ("403.14", "453.14", "665.64", "778.14",
                                     "615.64", "265.64", "278.14", "453.14")]
    durations = [10866, 32395, 16313, 5933, 4953, 1651, 3703, 3219]
    ps = ote_stats(profits)
    ds = ote_stats(durations)
    rel = lambda got, want: abs(float(got) - want) / abs(want)
    ok = (rel(ps.mean, 489.0775) < 1e-4
          and rel(ps.maximum, 778.14) < 1e-4 and rel(ps.minimum, 265.64) < 1e-4
          and rel(ds.mean, 9879.125) < 1e-4
          and rel(ds.std_dev, 10277.4075) < 1e-4)
    assert report(11, ok, "published session-table stats within 1e-4 relative")


def test_criterion_12_synthetic_substitute_suite():
    # proprietary exchange feeds replaced by synthetic-series properties
    rng = random.Random(2017)
    ok = True
    for fc in (Fraction("24.99"), Fraction("49.99"), Fraction("74.99")):
        level = 0
        levels = [0]
        for _ in range(3000):
            level += rng.choice([-3, -2, -1, 0, 1, 2, 3])
            levels.append(level)
        ticks = ticks_from_deltas(levels, ES)
        records = extract_otes(ticks, fc, "4.68", ES)
        closed = [r for r in records if r.closed]
        ok &= len(closed) >= 2
        types = [r.ote_type for r in records]
        ok &= all(a != b for a, b in zip(types, types[1:]))
        ok &= all(p.p_end == q.p_start and p.t_end == q.t_start
                  for p, q in zip(records, records[1:]))
        ok &= all(on_permitted_grid(r.pl, fc, "4.68", ES) for r in closed)
        for r in records:
            mean_b = sum(r.b_increments, Fraction(0)) / len(r.b_increments)
            ok &= mean_b > 0 if r.ote_type is OteType.BOTE else mean_b < 0
        # closed records never change when more ticks arrive
        prefix_records = extract_otes(ticks[:2000], fc, "4.68", ES)
        closed_prefix = [r for r in prefix_records if r.closed]
        ok &= records_values(records[:len(closed_prefix)]) == records_values(closed_prefix)
    assert report(12, ok, "synthetic-series property suite substitutes the 2017 feeds")
