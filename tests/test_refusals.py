"""Each refusal of bad arguments across the package, by exception type and
message, and the few small branches no other test reaches."""

import pytest

from mpslab import (PRESETS, CostModel, PositionSeries, Strategy, action_cov,
                    birth_threshold, brute_force_mps, cayley_stats, industry_gain, moment,
                    mps0, pl_variance, position_cov, positions_oplus, sample_stats,
                    strategies_compose, validate_membership)
from mpslab.distribution import UniverseParams
from mpslab.numeric import as_fraction
from mpslab.oracle import sweep
from mpslab.pl import pl_prefix
from mpslab.vectors import gen_bhs_basis, gen_family, rank_of_universe, rotation_matrix

ES = PRESETS["ES"]
P = UniverseParams(1, 3)
S = Strategy((1, -1))

REFUSALS = [
    (lambda: moment(-1, P), ValueError, "moment order must be >= 0"),
    (lambda: industry_gain(-1, P), ValueError, "cost must be non-negative"),
    (lambda: position_cov(0, 1, P), ValueError, "slice index out of range"),
    (lambda: action_cov(1, 0, P), ValueError, "lag must be >= 1"),
    (lambda: pl_variance([1, 2], 0, P, 1), ValueError, "expected 3 prices, got 2"),
    (lambda: cayley_stats(0), ValueError, "limit must be >= 1"),
    (lambda: positions_oplus(PositionSeries((0,)), PositionSeries((1, 0)), 1), ValueError,
     "position series must have equal length"),
    (lambda: strategies_compose(S, Strategy((0, 0, 0)), 1), ValueError,
     "strategies must have equal length"),
    (lambda: S.__delattr__("actions"), AttributeError, "cannot delete field 'actions'"),
    (lambda: validate_membership(S, 0), ValueError, "position limit must be >= 1"),
    (lambda: CostModel.equity(-1, [2350], ES), ValueError,
     "cost fraction must be non-negative"),
    (lambda: birth_threshold(-1, ES), ValueError, "filtering cost must be non-negative"),
    (lambda: mps0([2350, 2351], 0, 0, ES), ValueError, "position limit must be >= 1"),
    (lambda: as_fraction(object()), TypeError, "cannot interpret <object object at"),
    (lambda: sweep(P).pl_variance([1, 2], 0, 1), ValueError, "expected 3 prices"),
    (lambda: brute_force_mps([1, 2, 3], [0, 0], P), ValueError, "expected 3 costs, got 2"),
    (lambda: brute_force_mps([1, 2], [0, 0, 0], P), ValueError, "expected 3 prices"),
    (lambda: sample_stats([1, 2], bins=0), ValueError, "bin count must be >= 1"),
    (lambda: pl_prefix([2350], S, CostModel.constant(0, 2), ES), ValueError,
     "length mismatch"),
    (lambda: gen_family("eta", 1), ValueError, "eta family needs n >= 2"),
    (lambda: gen_bhs_basis(1), ValueError, "need n >= 2"),
    (lambda: rank_of_universe(1), ValueError, "need n >= 2"),
    (lambda: rank_of_universe(3, 0), ValueError, "position limit must be >= 1"),
    (lambda: rotation_matrix(1), ValueError, "need n >= 2"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS,
                         ids=[message for _, _, message in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value).startswith(message)


def test_small_branches():
    assert repr(S) == "Strategy(actions=(1, -1))"
    assert ES.on_grid("2350.25") and not ES.on_grid("2350.1")
    assert gen_family("bhs", 4) == gen_bhs_basis(4)
