"""Closed-form combinatorics against golden values and small oracles."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import action_distribution, char_fn_curvature
from mpslab import (abs_action_cov, action_cdf, action_count, action_cov,
                    action_pmf, char_fn, extreme_gain_strategies,
                    industry_gain, iter_strategies, limit_pmf, moment,
                    pl_variance, position_cov, slice_sums, universe_counts)
from mpslab.distribution import (UniverseParams, abs_action_case,
                                 pl_price_variance_bound, variance)


def test_universe_counts_golden():
    c = universe_counts(UniverseParams(1, 3))
    assert (c.strategies, c.actions_total, c.do_nothing, c.transactions) == (9, 27, 9, 18)
    assert universe_counts(UniverseParams(1, 2)).strategies == 3
    assert universe_counts(UniverseParams(3, 7)).strategies == 7 ** 6 == 117649


def test_do_nothing_fraction():
    for w in range(1, 6):
        for n in range(2, 8):
            c = universe_counts(UniverseParams(w, n))
            assert Fraction(c.do_nothing, c.actions_total) == Fraction(1, 2 * w + 1)


def test_action_count_goldens():
    got = [action_count(-3, UniverseParams(3, n)) for n in range(2, 8)]
    assert got == [2, 18, 154, 1274, 10290, 81634]
    assert [action_count(m, UniverseParams(1, 3)) for m in range(-2, 3)] == [1, 8, 9, 8, 1]
    assert action_count(4, UniverseParams(2, 2)) == 0
    assert action_count(5, UniverseParams(2, 2)) == 0   # out of range => 0


def test_action_count_of_a_non_integral_size_is_zero():
    p = UniverseParams(1, 4)
    assert [action_count(m, p) for m in (1.5, -0.5, Fraction(1, 3), 2.5, float("nan"))] == [0] * 5
    for n in (2, 3, 4):
        q = UniverseParams(2, n)
        assert action_count(1.5, q) == action_count(Fraction(7, 2), q) == 0
        # an integral float or Fraction counts as its integer
        assert action_count(3.0, q) == action_count(Fraction(-6, 2), q) == action_count(3, q)
    assert action_count(float("inf"), p) == action_count(-5, p) == 0


def test_action_count_total_identity():
    # table "Sum" column: row totals n (2W+1)^(n-1), exact big integers
    for w in range(1, 7):
        for n in range(2, 13):
            p = UniverseParams(w, n)
            assert sum(action_count(m, p) for m in range(-2 * w, 2 * w + 1)) == n * p.size


def test_action_distribution_symmetry():
    d = action_distribution(UniverseParams(3, 6))
    for m in range(-6, 7):
        assert d[m] == d[-m]


def test_pmf_mass_and_center():
    for w, n in ((1, 3), (2, 5), (4, 2)):
        p = UniverseParams(w, n)
        pmf = action_pmf(p)
        assert sum(pmf.values()) == 1
        assert pmf[0] == Fraction(1, 2 * w + 1)


def test_action_pmf_matches_exact_counts():
    # the O(1)-per-m closed form against count / total with the full powers
    for w in range(1, 5):
        for n in range(2, 13):
            p = UniverseParams(w, n)
            total = p.n * p.size
            assert action_pmf(p) == {m: Fraction(c, total)
                                     for m, c in action_distribution(p).items()}


def _uniform_moment(k, w):
    return Fraction(sum(m ** k for m in range(-w, w + 1)), 2 * w + 1)


def _mixture_pmf(p):
    """The time-slice mixture: slices 1 and n are uniform on [-W, W], each of
    the n-2 middle slices the triangular law of the difference of two."""
    w, n, b = p.limit, p.n, p.base
    return {m: Fraction(2, n) * Fraction(int(abs(m) <= w), b)
            + Fraction(n - 2, n) * Fraction(b - abs(m), b * b)
            for m in range(-2 * w, 2 * w + 1)}


def test_action_law_is_the_time_slice_mixture():
    for w in range(1, 7):
        for n in range(2, 13):
            p = UniverseParams(w, n)
            assert action_pmf(p) == _mixture_pmf(p)


def test_moments_are_the_convolved_uniform_moments():
    # a middle action is the sum of two independent uniforms on [-W, W]
    for w, n in ((1, 2), (1, 7), (2, 3), (3, 12), (6, 5)):
        p = UniverseParams(w, n)
        for s in range(13):
            edge = _uniform_moment(s, w)
            middle = sum(math.comb(s, k) * _uniform_moment(k, w) * _uniform_moment(s - k, w)
                         for k in range(s + 1))
            assert moment(s, p) == Fraction(2, n) * edge + Fraction(n - 2, n) * middle


def test_char_fn_is_the_mixture_of_dirichlet_kernels():
    for w, n in ((1, 2), (2, 5), (4, 13), (6, 40)):
        p = UniverseParams(w, n)
        b = p.base
        for t in (0.05, 0.4, 1.0, 2.5, -3.0):
            d = math.sin(b * t / 2) / (b * math.sin(t / 2))
            assert abs(char_fn(t, p) - (2 / n * d + (n - 2) / n * d * d)) < 1e-12


def test_slice_action_counts_match_enumeration():
    # the time-slice distributions: the edge slices are uniform on [-W, W]
    # with b^(n-2) actions per size, a middle slice has (b - |m|) b^(n-3)
    checked = 0
    for w in range(1, 4):
        for n in range(2, 7):
            p = UniverseParams(w, n)
            b = p.base
            per_slice = [Counter() for _ in range(n)]
            for s in iter_strategies(p):
                for i, u in enumerate(s.actions):
                    per_slice[i][u] += 1
            for i, counts in enumerate(per_slice):
                for m in range(-2 * w, 2 * w + 1):
                    if i in (0, n - 1):
                        expected = b ** (n - 2) if abs(m) <= w else 0
                    else:
                        expected = (b - abs(m)) * b ** (n - 3)
                    assert counts[m] == expected, (w, n, i + 1, m)
                    checked += 1
    assert checked == 540


def test_limit_pmf():
    p = UniverseParams(2, 9)
    lim = limit_pmf(p)
    assert lim[0] == Fraction(5, 25)
    assert sum(lim.values()) == 1
    # PMF approaches the limit as n grows
    for m in range(-4, 5):
        wide = action_pmf(UniverseParams(2, 10 ** 6))
        assert abs(wide[m] - lim[m]) < Fraction(1, 10 ** 5)


def test_cdf_steps():
    p = UniverseParams(1, 3)
    assert action_cdf(-3, p) == 0
    assert action_cdf(3, p) == 1
    assert action_cdf(2, p) == 1
    assert action_cdf(0, p) == Fraction(1, 2) + action_pmf(p)[0] / 2
    assert action_cdf(-0.5, p) == action_cdf(-1, p)
    # right-continuity and monotonicity over the 4W+1 jumps
    jumps = [m for m in range(-2, 3)]
    values = [action_cdf(m, p) for m in jumps]
    assert values == sorted(values)
    assert len(jumps) == 4 * 1 + 1


def test_char_fn_basics():
    p = UniverseParams(2, 7)
    assert char_fn(0.0, p) == 1.0
    for t in (0.1, 0.7, 2.3):
        assert char_fn(-t, p) == char_fn(t, p)


def test_char_fn_curvature_matches_moment2():
    for w, n in ((1, 3), (2, 5), (3, 9), (4, 13)):
        p = UniverseParams(w, n)
        assert abs(char_fn_curvature(p) - float(moment(2, p))) < 1e-8


def test_moments():
    p = UniverseParams(1, 3)
    assert moment(0, p) == 1
    assert moment(1, p) == 0
    assert moment(2, p) == Fraction(8, 9)
    assert moment(3, p) == 0
    assert moment(5, p) == 0
    for w, n in ((1, 2), (2, 4), (3, 7), (5, 3)):
        q = UniverseParams(w, n)
        assert moment(2, q) == variance(q) == Fraction(2 * w * (w + 1) * (n - 1), 3 * n)


def test_moment_matches_oracle_empirical():
    for w, n in ((1, 3), (1, 5), (2, 3), (3, 2)):
        p = UniverseParams(w, n)
        total = 0
        acc2 = 0
        acc4 = 0
        for s in iter_strategies(p):
            for u in s.actions:
                total += 1
                acc2 += u * u
                acc4 += u ** 4
        assert moment(2, p) == Fraction(acc2, total)
        assert moment(4, p) == Fraction(acc4, total)


def test_industry_gain():
    p = UniverseParams(1, 3)
    zero = industry_gain(0, p)
    assert zero.total_dollars == 0 and zero.mean_pl == 0
    gain = industry_gain(1, p)
    assert gain.total_dollars == 20
    assert gain.mean_pl == Fraction(-20, 9) == -Fraction(2 * 1 * 2 * 5, 3 * 3)


def test_industry_gain_divisibility():
    for w in range(1, 101):
        assert (w * (w + 1) * (2 * w + 1)) % 3 == 0
        assert (w * (w + 1) * (2 * w + 1)) % 6 == 0


def test_extreme_gain():
    e4 = extreme_gain_strategies(UniverseParams(1, 4))
    assert e4.max_gain == 6
    assert e4.witness_count == 2
    assert {w.actions for w in e4.witnesses} == {(1, -2, 2, -1), (-1, 2, -2, 1)}
    assert extreme_gain_strategies(UniverseParams(1, 2)).max_gain == 2
    assert e4.min_gain == 0 and e4.min_witness_count == 1


def test_extreme_gain_matches_enumeration():
    for w, n in ((1, 4), (2, 3), (1, 5)):
        p = UniverseParams(w, n)
        best = max(s.traded_contracts for s in iter_strategies(p))
        count = sum(1 for s in iter_strategies(p) if s.traded_contracts == best)
        e = extreme_gain_strategies(p)
        assert e.max_gain == best == 2 * w * (n - 1)
        assert e.witness_count == count == 2


def test_slice_sums_golden():
    s = slice_sums(1, UniverseParams(1, 3))
    assert (s.sum_u, s.sum_abs_u, s.sum_u2) == (0, 6, 6)
    assert slice_sums(2, UniverseParams(1, 4)).sum_u2 == 36
    with pytest.raises(ValueError):
        slice_sums(0, UniverseParams(1, 3))
    with pytest.raises(ValueError):
        slice_sums(5, UniverseParams(1, 4))


def test_position_cov():
    p = UniverseParams(1, 3)
    assert position_cov(1, 1, p) == 6
    assert position_cov(1, 2, p) == 0
    assert position_cov(3, 3, p) == 0   # n-slice is the zero vector
    assert position_cov(2, 2, p) == 6


def test_action_cov():
    p = UniverseParams(1, 3)
    assert action_cov(1, 1, p) == -6
    assert action_cov(1, 2, p) == 0
    with pytest.raises(ValueError):
        action_cov(3, 1, p)


def test_abs_action_cov_theorem_a_row():
    expected = {1: 2, 2: 10, 3: 28, 4: 60, 5: 110, 6: 182, 7: 280, 8: 408,
                9: 570, 10: 770}
    for w, value in expected.items():
        assert abs_action_cov(1, 2, UniverseParams(w, 2)) == value


def test_abs_action_cov_n4_matrix():
    p = UniverseParams(1, 4)
    golden = {(1, 2): (18, "B"), (1, 3): (16, "D"), (1, 4): (12, "C"),
              (2, 3): (22, "E"), (2, 4): (16, "D"), (3, 4): (18, "B")}
    for (i, r), (value, case) in golden.items():
        assert abs_action_cov(i, r, p) == value
        assert abs_action_case(i, r, p) == case


def test_abs_action_cov_n7_w3_matrix():
    p = UniverseParams(3, 7)
    assert abs_action_cov(1, 2, p) == 518616
    assert abs_action_cov(1, 3, p) == 460992
    assert abs_action_cov(1, 7, p) == 345744
    assert abs_action_cov(2, 3, p) == 643468
    assert abs_action_cov(2, 4, p) == 614656
    assert abs_action_cov(2, 7, p) == 460992
    assert abs_action_cov(6, 7, p) == 518616


def _fraction_abs_action_cov(i, r, p):
    """abs_action_cov as it was written on Fractions, frozen as the judge."""
    w, n, b = p.limit, p.n, p.base
    ww1, case = w * (w + 1), abs_action_case(i, r, p)
    scale = b ** (n - 3) if n >= 3 else None
    if case == "A":
        value = Fraction(ww1 * b, 3)
    elif case == "B":
        value = Fraction(3 * ww1 * ww1 * scale, 2)
    elif case == "C":
        value = Fraction(ww1 * ww1 * scale)
    elif case == "D":
        value = Fraction(4 * ww1 * ww1 * scale, 3)
    elif case == "E":
        value = Fraction(w * (28 * w ** 3 + 56 * w * w + 27 * w - 1) * scale, 15)
    else:
        value = Fraction(16 * ww1 * ww1 * scale, 9)
    assert value.denominator == 1
    return value.numerator


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(2, 40),
       st.sampled_from([0, 1, Fraction(1, 3), Fraction(117, 25), Fraction(2501, 2)]))
def test_integer_closed_forms_match_their_fraction_forms(w, n, cost):
    p = UniverseParams(w, n)
    b, ww1 = p.base, w * (w + 1)
    square = Fraction(ww1 * b ** (n - 1), 3)      # Q, as each form wrote it
    for i in range(1, n + 1):
        middle = 1 < i < n
        assert slice_sums(i, p) == (
            0, Fraction((4 if middle else 3) * ww1 * b ** (n - 2), 3), (2 if middle else 1) * square)
        assert position_cov(i, i, p) == (square if i < n else 0)
        for r in range(i + 1, n + 1):
            assert abs_action_cov(i, r, p) == _fraction_abs_action_cov(i, r, p)
            assert position_cov(i, r, p) == position_cov(r, i, p) == 0
            assert action_cov(i, r - i, p) == (-square if r == i + 1 else 0)
    total = 2 * cost * w * (w + 1) * Fraction(b) ** (n - 2) * Fraction(2 * n - 1, 3)
    gain = industry_gain(cost, p)
    assert gain == (total, -total / p.size)
    assert type(gain.total_dollars) is type(gain.mean_pl) is Fraction


def test_abs_action_cov_index_checks():
    p = UniverseParams(1, 4)
    with pytest.raises(ValueError):
        abs_action_cov(2, 2, p)
    with pytest.raises(ValueError):
        abs_action_cov(0, 1, p)


def test_pl_variance_flat_prices():
    out = pl_variance(["2370.00"] * 3, 5, UniverseParams(1, 3), 50)
    assert out.var_price_leg == 0
    assert out.var_total == out.var_cost_leg


def test_pl_variance_worked_case():
    p = UniverseParams(1, 3)
    out = pl_variance(["2369.50", "2369.75", "2370.00"], 5, p, 50)
    assert out.var_price_leg == Fraction(50 ** 2 * 2 * 9, 3 * 8) * (
        Fraction(1, 16) + Fraction(1, 16))
    assert out.var_total == out.var_price_leg + out.var_cost_leg
    assert out.var_price_leg <= pl_price_variance_bound(
        ["2369.50", "2369.75", "2370.00"], p, 50)


def test_pl_variance_n2_branch_matches_hand_enumeration():
    # three strategies (0,0), (1,-1), (-1,1): PL^II in {0, -2C, -2C}
    out = pl_variance(["100.00", "100.00"], 1, UniverseParams(1, 2), 1)
    assert out.var_cost_leg == Fraction(4, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        UniverseParams(0, 3)
    with pytest.raises(ValueError):
        UniverseParams(1, 1)
