"""Exact mathematics of bounded-position trading strategies.

P&L accounting on the price grid, the closed-form combinatorics of the
strategy universe with its brute-force enumeration oracle, the capped
position magma, the linear structure of the universe, and the maximum
profit strategy / optimal trading element pipeline over tick data.
"""

import importlib
import sys
import types

__version__ = "0.1.0"


class _Package(types.ModuleType):
    # mpslab.pl is the function of the submodule of that name, loaded on first
    # use; the import system's binding of the submodule here is ignored
    pl = property(lambda self: importlib.import_module(".pl", __name__).pl,
                  lambda self, value: None)


sys.modules[__name__].__class__ = _Package

# The other exports load their module on first use (PEP 562), so only the
# enumeration oracle, and what imports it, loads numpy.
_EXPORTS = {
    "distribution": "abs_action_cov action_cdf action_count action_cov action_pmf char_fn "
    "extreme_gain_strategies industry_gain limit_pmf moment pl_variance position_cov "
    "slice_sums universe_counts",
    "ingest": "PRESETS parse_ticks serialize_ticks sessionize trade_ticks",
    "magma": "CappedInt cayley_stats cayley_table ominus oplus positions_oplus solution_set "
    "strategies_compose",
    "model": "ContractSpec CostModel GridError PositionSeries Strategy Tick "
    "positions_to_strategy strategy_to_positions validate_membership",
    "mps": "MpsResult mps0",
    "numeric": "BudgetExceeded",
    "oracle": "brute_force_mls brute_force_mps iter_strategies",
    "ote": "OteExtractor OteType Scenario Tolerances birth_threshold extract_otes "
    "on_permitted_grid ote_stats permitted_profit_grid sample_stats",
    "pl": "ote_pl pl_matrix pl_prefix price_increment_stats",
    "vectors": "gen_bhs_basis gen_family max_orthogonal_subset rank_of_universe rotation_matrix",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    if name in _EXPORTS:  # the exporting modules are attributes of the package too
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
