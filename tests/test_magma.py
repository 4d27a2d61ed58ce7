"""Capped position algebra: exhaustive scalar laws, series ops, composition."""

from itertools import product

import pytest

from mpslab import (CappedInt, PositionSeries, Strategy, cayley_stats,
                    cayley_table, iter_strategies, magma, ominus, oplus,
                    positions_oplus, positions_to_strategy, solution_set,
                    strategies_compose, strategy_to_positions)
from mpslab.distribution import UniverseParams

LIMITS = range(1, 6)


def c(v, w):
    return CappedInt(v, w)


def test_worked_examples_w3():
    assert oplus(c(-3, 3), c(-2, 3)).value == -3      # underflow
    assert oplus(c(1, 3), c(3, 3)).value == 3         # overflow
    assert oplus(c(2, 3), c(0, 3)).value == 2
    assert ominus(c(1, 3), c(-2, 3)).value == 3
    assert ominus(c(1, 3), c(-3, 3)) is None
    assert ominus(c(2, 3), c(2, 3)).value == 0


def test_limit_mismatch():
    with pytest.raises(ValueError):
        oplus(c(1, 2), c(1, 3))


def test_capped_int_validation():
    with pytest.raises(ValueError):
        CappedInt(4, 3)
    with pytest.raises(ValueError):
        CappedInt(0, 0)


@pytest.mark.parametrize("w", LIMITS)
def test_exhaustive_scalar_laws(w):
    values = [c(v, w) for v in range(-w, w + 1)]
    zero = c(0, w)
    clamped = 0
    for a, b in product(values, repeat=2):
        r = oplus(a, b)
        assert r == oplus(b, a)                       # commutative
        assert -w <= r.value <= w                     # closure
        if r.value != a.value + b.value:
            clamped += 1
    for a in values:
        assert oplus(a, zero) == a                    # identity
        assert oplus(a, -a) == zero                   # unique inverse below
        inverses = [b for b in values if oplus(a, b) == zero]
        assert inverses == [-a]
        assert -oplus(a, a) == oplus(-a, -a)
    for a, b in product(values, repeat=2):
        assert -oplus(a, b) == oplus(-a, -b)          # antisymmetry theorem
    stats = cayley_stats(w)
    assert clamped == stats.clamped == w * (w + 1)
    assert stats.ordinary == 3 * w * w + 3 * w + 1
    assert stats.pairs == stats.clamped + stats.ordinary


@pytest.mark.parametrize("w", LIMITS)
def test_non_associativity_witness(w):
    # (1 (+) W) (+) -1 clamps then backs off; 1 (+) (W (+) -1) does not clamp
    a, b, d = c(1, w), c(w, w), c(-1, w)
    left = oplus(oplus(a, b), d)
    right = oplus(a, oplus(b, d))
    assert left != right


def test_w1_specific_witness():
    assert oplus(oplus(c(1, 1), c(1, 1)), c(-1, 1)).value == 0
    assert oplus(c(1, 1), oplus(c(1, 1), c(-1, 1))).value == 1


@pytest.mark.parametrize("w", LIMITS)
def test_subtraction_domain(w):
    values = [c(v, w) for v in range(-w, w + 1)]
    undefined = 0
    for a, b in product(values, repeat=2):
        r = ominus(a, b)
        if r is None:
            undefined += 1
            assert abs(a.value - b.value) > w
        else:
            assert r.value == a.value - b.value
    assert undefined == cayley_stats(w).undefined_sub == w * (w + 1)


def test_solution_sets():
    assert [x.value for x in solution_set(c(2, 3), c(3, 3))] == [1, 2, 3]
    assert solution_set(c(-2, 3), c(3, 3)) == ()
    assert [x.value for x in solution_set(c(0, 3), c(1, 3))] == [1]
    assert [x.value for x in solution_set(c(-2, 3), c(-3, 3))] == [-3, -2, -1]


@pytest.mark.parametrize("w", LIMITS)
def test_solution_set_counts(w):
    values = [c(v, w) for v in range(-w, w + 1)]
    for b, target in product(values, repeat=2):
        sols = solution_set(b, target)
        for x in sols:
            assert oplus(b, x) == target
        if abs(target.value - b.value) > w:
            assert sols == ()
        elif abs(target.value) < w:
            assert len(sols) == 1
        else:
            assert len(sols) == abs(b.value) + 1
        if sols:
            # the plain difference is the minimum-absolute-value solution
            assert min(sols, key=lambda s: abs(s.value)).value == target.value - b.value


def test_cayley_table_layout():
    table = cayley_table(3, "plus")
    assert table[0][1] == -3                          # -3 (+) -2 underflows
    assert table[4][6] == 3                           # 1 (+) 3 overflows
    sub = cayley_table(3, "minus")
    assert sub[4][1] == 3                             # 1 (-) -2
    assert sub[4][0] is None                          # 1 (-) -3 undefined
    assert cayley_stats(1).ordinary / cayley_stats(1).pairs == 7 / 9


@pytest.mark.parametrize("w", range(1, 11))
def test_cayley_table_cells_are_the_operators(w):
    values = range(-w, w + 1)
    plus, minus = cayley_table(w, "plus"), cayley_table(w, "minus")
    for row, a in enumerate(values):
        for col, b in enumerate(values):
            assert plus[row][col] == oplus(c(a, w), c(b, w)).value
            diff = ominus(c(a, w), c(b, w))
            assert minus[row][col] == (None if diff is None else diff.value)


def test_cayley_table_builds_no_capped_int(monkeypatch):
    def no_capped_int(*args):
        raise AssertionError("CappedInt built")

    monkeypatch.setattr(magma, "CappedInt", no_capped_int)
    assert cayley_table(2, "plus")[0] == [-2, -2, -2, -1, 0]
    assert cayley_table(2, "minus")[0] == [0, -1, -2, None, None]


@pytest.mark.parametrize("limit", [0, -1, -2, -10 ** 6])
@pytest.mark.parametrize("op", ["plus", "minus"])
def test_cayley_table_refuses_a_limit_below_one(limit, op):
    with pytest.raises(ValueError, match="limit must be >= 1"):
        cayley_table(limit, op)


def test_cayley_table_checks_the_op_before_the_limit():
    with pytest.raises(ValueError, match="op must be"):
        cayley_table(-1, "times")


def test_positions_oplus_identity_and_inverse():
    a = PositionSeries((1, 0, 0))
    dnp = PositionSeries((0, 0, 0))
    assert positions_oplus(a, dnp, 1) == a
    assert positions_oplus(a, -a, 1) == dnp
    assert positions_oplus(PositionSeries((1, 0)), PositionSeries((1, 0)), 1) \
        == PositionSeries((1, 0))


def test_positions_oplus_membership_checks():
    with pytest.raises(ValueError):
        positions_oplus(PositionSeries((2, 0)), PositionSeries((0, 0)), 1)
    with pytest.raises(ValueError):
        positions_oplus(PositionSeries((1, 1)), PositionSeries((0, 0)), 1)


def test_strategies_compose_examples():
    dns = Strategy((0, 0, 0))
    a = Strategy((1, -1, 0))
    assert strategies_compose(a, dns, 1) == a
    assert strategies_compose(a, -a, 1) == dns
    assert strategies_compose(Strategy((1, -1, 0)), Strategy((1, 0, -1)), 1) \
        == Strategy((1, 0, -1))


def test_strategies_compose_matches_positions_route_exhaustively():
    for n in range(2, 5):
        strategies = list(iter_strategies(UniverseParams(1, n)))
        for a in strategies:
            for b in strategies:
                via_positions = positions_to_strategy(
                    positions_oplus(strategy_to_positions(a),
                                    strategy_to_positions(b), 1))
                assert strategies_compose(a, b, 1) == via_positions


def test_compose_first_coordinate_is_oplus():
    for a in iter_strategies(UniverseParams(1, 3)):
        for b in iter_strategies(UniverseParams(1, 3)):
            composed = strategies_compose(a, b, 1)
            assert composed.actions[0] == oplus(c(a.actions[0], 1),
                                                c(b.actions[0], 1)).value


def test_compose_membership_guard():
    with pytest.raises(ValueError):
        strategies_compose(Strategy((2, -2)), Strategy((0, 0)), 1)
