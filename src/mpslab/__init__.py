"""Exact mathematics of bounded-position trading strategies.

P&L accounting on the price grid, the closed-form combinatorics of the
strategy universe with its brute-force enumeration oracle, the capped
position magma, the linear structure of the universe, and the maximum
profit strategy / optimal trading element pipeline over tick data.
"""

from .distribution import (ActionDistribution, UniverseParams, action_cdf,
                           action_count, action_distribution, action_pmf,
                           abs_action_cov, action_cov, char_fn,
                           extreme_gain_strategies, industry_gain, limit_pmf,
                           moment, pl_variance, position_cov, slice_sums,
                           universe_counts)
from .ingest import (PRESETS, Session, SessionWindow, contract_for,
                     load_contract_config, parse_ticks, serialize_ticks,
                     sessionize, trade_ticks)
from .magma import (CappedInt, cayley_stats, cayley_table, ominus, oplus,
                    positions_oplus, solution_set, strategies_compose)
from .model import (ContractSpec, CostModel, GridError, PositionSeries,
                    Strategy, Tick, positions_to_strategy,
                    strategy_to_positions, validate_membership)
from .mps import MpsResult, MpsTrade, mps0, trades_of
from .oracle import (BudgetExceeded, brute_force_mls, brute_force_mps, decode,
                     empirical_action_counts, iter_strategies, iter_universe)
from .ote import (AttachedSamples, OteExtractor, OteRecord, OteStats, OteType,
                  Scenario, Tolerances, birth_threshold, classify_scenario,
                  extract_otes, head_and_shoulders, on_permitted_grid,
                  ote_stats, permitted_profit_grid, sample_stats)
from .pl import (PlBreakdown, ote_pl, pl, pl_matrix, pl_prefix,
                 price_increment_stats)
from .vectors import (OrthFamily, gen_bhs_basis, gen_family,
                      max_orthogonal_subset, rank_of_universe,
                      rotation_matrix)

__version__ = "0.1.0"
