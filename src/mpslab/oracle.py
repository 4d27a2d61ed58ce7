"""Brute-force enumeration of the strategy universe.

Ground truth for every closed form.  The universe is walked one way, in
index chunks (``_chunks``): each integer in [0, (2W+1)^(n-1)) is expanded in
base 2W+1, the digits minus W give the positions W_1..W_{n-1} (W_n = 0
appended), and adjacent differences give the actions.  The sweep, the
brute-force extrema and ``iter_strategies`` all stream these chunks, sized
from W and n, instead of materialising the universe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .distribution import UniverseParams
from .model import Strategy
from .numeric import BudgetExceeded, Rational, as_fraction, as_fractions, scaled

DEFAULT_BUDGET = 10 ** 7
_CHUNK_ROWS = 1 << 13  # one chunk's float arrays fit a 2 MB L2 together


def _check_budget(p: UniverseParams, budget: int) -> None:
    if p.size > budget:
        raise BudgetExceeded(
            f"universe (2W+1)^(n-1) = {p.size} exceeds budget {budget}; "
            f"a budget of at least {p.size} is required"
        )


def iter_strategies(p: UniverseParams, budget: int = DEFAULT_BUDGET) -> Iterator[Strategy]:
    """Each strategy of the universe once, in index order."""
    _check_budget(p, budget)  # at the call, not at the first ``next``
    return (Strategy(row) for block in _chunks(p, budget, _CHUNK_ROWS)
            for row in _actions_of(block, p.limit).tolist())


def _int_dtype(bound: int) -> np.dtype:
    """Smallest signed integer dtype holding -bound..bound."""
    dtype = np.min_scalar_type(-bound - 1)
    if dtype.kind != "i":
        raise BudgetExceeded(f"values up to {bound} do not fit a 64-bit integer")
    return dtype


def _sum_dtype(p: UniverseParams) -> type:
    """float32 if a full chunk's sums (4nW^2 a row) stay below 2^24, else float64."""
    return np.float32 if _CHUNK_ROWS * 4 * p.n * p.limit ** 2 < 1 << 24 else np.float64


def _chunks(p: UniverseParams, budget: int, rows: int,
            width: int | None = None) -> Iterator[np.ndarray]:
    """The universe in position chunks of at most ``rows`` rows (at least
    one), ``width`` columns wide (n by default; the columns after n are
    zero).  Chunks start at multiples of (2W+1)^k, the largest power that
    fits, so the k lowest digit columns are the same in every chunk: they
    are built once, and each chunk fills only the higher ones.
    """
    _check_budget(p, budget)
    if p.size >= 1 << 63:
        raise BudgetExceeded(f"universe (2W+1)^(n-1) = {p.size} has row indices past int64")
    base, w, n = p.base, p.limit, p.n
    width = n if width is None else width
    rows = max(1, min(rows, p.size))
    span, k = 1, 0
    while k < n - 1 and span * base <= rows:
        span, k = span * base, k + 1
    rows -= rows % span
    low = np.zeros((rows, width), dtype=_int_dtype(w))
    idx = np.arange(rows)
    for col in range(k):
        low[:, col] = idx % base - w
        idx //= base
    for lo in range(0, p.size, rows):
        block = low[:min(rows, p.size - lo)].copy()
        high = np.arange(lo // span, lo // span + block.shape[0] // span)
        spans = block.reshape(-1, span, width)
        for col in range(k, n - 1):
            spans[:, :, col] = (high % base - w)[:, None]
            high //= base
        yield block


def _actions_of(positions: np.ndarray, limit: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Actions of position rows, in the smallest dtype holding -4W..4W,
    written into ``out`` (a fresh array by default).

    Every row ends at position 0, so one difference along the flattened
    array gives each row's first action as its first position.
    """
    if out is None:
        out = np.empty(positions.shape, _int_dtype(4 * limit))
    np.copyto(out, positions)
    out.reshape(-1)[1:] -= positions.reshape(-1)[:-1]
    return out


class UniverseSums(NamedTuple):
    """All per-universe exact sums one sweep can deliver."""

    params: UniverseParams
    action_counts: dict[int, int]          # m -> count over all slices
    slice_abs: tuple[int, ...]             # per slice, sum |U_i|
    slice_sq: tuple[int, ...]              # per slice, sum U_i^2
    slice_row_abs: tuple[int, ...]         # per slice, sum_j U_ij T_j, T_j = sum_i |U_ij|
    gram_positions: np.ndarray             # n x n, sum W_i W_l
    gram_actions: np.ndarray               # n x n, sum U_i U_l
    gram_abs_actions: np.ndarray           # n x n, sum |U_i| |U_l|
    total_abs: int                         # sum over everything of |U|
    max_abs_row: int                       # max over strategies of sum |U_i|
    max_abs_row_count: int                 # how many strategies reach it

    def pl_variance(self, prices: Sequence[Rational], cost: Rational,
                    k: Rational) -> EmpiricalPlVariance:
        """Exact sample variance of PL, PL^I, PL^II over the swept universe.

        PL^I_j = -k*delta*D_j and PL^II_j = -C*T_j with integer D_j = sum_i
        U_ij r_i (r the prices relative to the first tick, scaled to ints)
        and T_j = sum_i |U_ij|.  The sums over j are read off the sweep in
        exact ints: sum D^2 = r' G_U r, sum T^2 = the sum of G_|U|, and
        sum D T = r . slice_row_abs.
        """
        p = self.params
        ps = as_fractions(prices)
        if len(ps) != p.n:
            raise ValueError(f"expected {p.n} prices")
        c, kf = as_fraction(cost), as_fraction(k)
        r, scale = scaled(x - ps[0] for x in ps)  # P_i - P_1, scaled
        s = p.size
        sum_d2 = sum(ri * gi * rl for ri, row in zip(r, self.gram_actions.tolist())
                     for gi, rl in zip(row, r))
        sum_t = self.total_abs
        sum_t2 = sum(sum(row) for row in self.gram_abs_actions.tolist())
        sum_dt = sum(ri * x for ri, x in zip(r, self.slice_row_abs))
        unit = kf / scale  # dollars per scaled price unit
        var_i = unit * unit * Fraction(sum_d2, s - 1)  # mean of PL^I is exactly 0
        var_ii = c * c * Fraction(s * sum_t2 - sum_t * sum_t, s * (s - 1))
        var_total = var_i + var_ii + 2 * unit * c * Fraction(sum_dt, s - 1)
        return EmpiricalPlVariance(var_i, var_ii, var_total, sum_dt)


def sweep(p: UniverseParams, budget: int = DEFAULT_BUDGET) -> UniverseSums:
    """Full enumeration sweep accumulating every sum the tests compare.

    A strategy adds at most 4nW^2 to any sum (|U_i| <= 2W, T_j <= 2nW).  Each
    chunk's products and reductions run through BLAS on ``_sum_dtype(p)``
    operands: float32 when a full chunk's sums stay below 2^24, else
    float64.  A chunk has few enough rows that its sums stay below that
    dtype's exact-integer bound (2^24 or 2^53): exact integers in any
    summation order, cast back to int64 before they are accumulated.
    A universe whose sums could reach 2^63 is refused with ``BudgetExceeded``.

    The chunks are n rounded up to a multiple of 4 columns wide.  OpenBLAS
    runs a float32 Gram on its full-width kernels only at such widths: on a
    13,122-row chunk (2-vCPU Xeon, OpenBLAS 0.3.31) widths 8 and 16 took 65
    and 146 us, widths 7 and 13 took 284 and 223 us.  The pad columns are
    zero, so every sum reads them as zero actions, and their count is taken
    off ``action_counts[0]`` at the end.  An even row length also lets the
    actions, shifted to 0..4W in uint8, pair up as uint16: while 4W+1 <= 256
    one ``bincount`` over 256(4W+1) bins counts them two at a time, and the
    bins are folded into per-value counts once per sweep.  Past that,
    ``np.unique`` adds each chunk's counts into one (4W+1)-entry table.  The
    action Gram is not formed per chunk: U = DW row by row, with D the
    first difference and W_0 = 0, so sum UU' = D (sum WW') D', read off the
    position Gram in exact int64.

    The chunks have at most 2^13 rows, so one chunk's float positions and
    |actions| fit a 2 MB L2 together.  Every chunk is written into one set
    of buffers, allocated for the first chunk, the largest: float positions,
    which become the float actions once their Gram is taken, float
    |actions|, integer and shifted uint8 actions, row sums and a ones
    vector.  Arrays allocated per chunk are handed back to the kernel and
    zeroed again for the next chunk: at W = 1, n = 13 they cost about 15,700
    minor page faults a sweep, the buffers about 500.
    """
    _check_budget(p, budget)
    n, w = p.n, p.limit
    per_row = 4 * n * w * w
    if p.size * per_row >= 1 << 63:
        raise BudgetExceeded(
            f"sums up to size*4nW^2 = {p.size * per_row} would overflow int64")
    width = -(-n // 4) * 4
    values = 4 * w + 1
    paired = values <= 256
    counts = np.zeros(256 * values if paired else values, dtype=np.int64)
    slice_abs = np.zeros(width, dtype=np.int64)
    slice_row_abs = np.zeros(width, dtype=np.int64)
    gw = np.zeros((width, width), dtype=np.int64)
    ga = np.zeros((width, width), dtype=np.int64)
    max_row = -1
    max_row_count = 0
    dtype = _sum_dtype(p)
    exact = 1 << (np.finfo(dtype).nmant + 1)
    ones = np.ones(width, dtype)
    floats = None
    for block in _chunks(p, budget, min(_CHUNK_ROWS, (exact - 1) // per_row), width):
        r = block.shape[0]
        assert r * per_row < exact
        if floats is None:
            # one set of buffers for every chunk, sized by the first, the largest
            floats = np.empty((r, width), dtype)  # positions, then actions
            abs_floats = np.empty((r, width), dtype)
            actions = np.empty((r, width), _int_dtype(4 * w))
            shifted = np.empty((r, width), np.uint8) if paired else None
            row_sums = np.empty(r, dtype)
            row_ones = np.ones(r, dtype)
        wf, af, rows = floats[:r], abs_floats[:r], row_sums[:r]
        np.copyto(wf, block, casting="unsafe")
        gw += (wf.T @ wf).astype(np.int64)
        u = _actions_of(block, w, out=actions[:r])
        if paired:
            sh = shifted[:r]
            np.add(u, 2 * w, out=sh, casting="unsafe")
            counts += np.bincount(sh.view(np.uint16).ravel(), minlength=256 * values)
        else:
            seen, times = np.unique(u, return_counts=True)
            counts[seen.astype(np.int64) + 2 * w] += times
        uf = wf  # the float positions are spent once their Gram is taken
        np.copyto(uf, u, casting="unsafe")
        np.abs(uf, out=af)
        np.dot(af, ones, out=rows)
        slice_abs += np.dot(row_ones[:r], af).astype(np.int64)
        slice_row_abs += np.dot(rows, uf).astype(np.int64)
        ga += (af.T @ af).astype(np.int64)
        row_max = int(rows.max())
        if row_max > max_row:
            max_row, max_row_count = row_max, 0
        if row_max == max_row:
            max_row_count += int((rows == row_max).sum())

    if paired:
        # bin a + 256*b counts a pair (a, b) of shifted actions, in either byte order
        pairs = counts.reshape(values, 256)
        counts = pairs.sum(axis=0)[:values] + pairs.sum(axis=1)
    counts[2 * w] -= p.size * (width - n)
    gw = gw[:n, :n].copy()
    diff = np.eye(n, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)
    gu = diff @ gw @ diff.T
    return UniverseSums(
        params=p,
        action_counts=dict(zip(range(-2 * w, 2 * w + 1), map(int, counts))),
        slice_abs=tuple(int(x) for x in slice_abs[:n]),
        slice_sq=tuple(int(x) for x in np.diagonal(gu)),
        slice_row_abs=tuple(int(x) for x in slice_row_abs[:n]),
        gram_positions=gw,
        gram_actions=gu,
        gram_abs_actions=ga[:n, :n].copy(),
        total_abs=int(slice_abs.sum()),
        max_abs_row=max_row,
        max_abs_row_count=max_row_count,
    )


class EmpiricalPlVariance(NamedTuple):
    var_price_leg: Fraction
    var_cost_leg: Fraction
    var_total: Fraction
    cross_sum: int        # sum_j D_j T_j; zero by the mirror-pair argument


def empirical_pl_variance(prices: Sequence[Rational], cost: Rational,
                          p: UniverseParams, k: Rational,
                          budget: int = DEFAULT_BUDGET) -> EmpiricalPlVariance:
    """Exact sample variance of PL, PL^I, PL^II by full sweep; see
    ``UniverseSums.pl_variance``."""
    return sweep(p, budget).pl_variance(prices, cost, k)


class MpsSweepResult(NamedTuple):
    best_pl: Fraction
    witnesses: tuple[Strategy, ...]


class MlsSweepResult(NamedTuple):
    worst_pl: Fraction
    witnesses: tuple[Strategy, ...]


def _cost_vector(costs, n: int) -> tuple[Fraction, ...]:
    cs = as_fractions(costs.per_contract if hasattr(costs, "per_contract") else costs)
    if len(cs) != n:
        raise ValueError(f"expected {n} costs, got {len(cs)}")
    return cs


def _scan_extremum(prices, costs, p, k, budget, sign):
    ps = as_fractions(prices)
    if len(ps) != p.n:
        raise ValueError(f"expected {p.n} prices")
    cs = _cost_vector(costs, p.n)
    kf = as_fraction(k)
    ints, scale = scaled([kf * x for x in ps] + list(cs))
    p_ints, c_ints = ints[:p.n], ints[p.n:]
    # a strategy's value is at most 2W*n*max(|p_i| + |c_i|); past int64, Python ints
    bound = 2 * p.limit * p.n * max(abs(a) + abs(b) for a, b in zip(p_ints, c_ints))
    dtype = np.int64 if bound < 1 << 63 else object
    p_int = np.array(p_ints, dtype=dtype)
    c_int = np.array(c_ints, dtype=dtype)
    best = None
    witnesses: list[Strategy] = []
    # per-row int64 or Python-int values: no float bound on the chunk size;
    # chunks come in index order, so the witnesses do too
    for block in _chunks(p, budget, _CHUNK_ROWS):
        u = _actions_of(block, p.limit).astype(dtype)
        value = sign * (-(u @ p_int) - np.abs(u) @ c_int)
        top = int(value.max())
        if best is None or top > best:
            best = top
            witnesses = []
        if top == best:
            witnesses.extend(map(Strategy, u[value == best].tolist()))
    return Fraction(sign * best, scale), tuple(witnesses)


def brute_force_mps(prices: Sequence[Rational], costs, p: UniverseParams,
                    k: Rational = 1, budget: int = DEFAULT_BUDGET) -> MpsSweepResult:
    """Maximum-profit strategy by exhaustive sweep; never below zero."""
    best, witnesses = _scan_extremum(prices, costs, p, k, budget, sign=1)
    return MpsSweepResult(best, witnesses)


def brute_force_mls(prices: Sequence[Rational], costs, p: UniverseParams,
                    k: Rational = 1, budget: int = DEFAULT_BUDGET) -> MlsSweepResult:
    """Maximum-loss strategy by exhaustive sweep; never above zero."""
    worst, witnesses = _scan_extremum(prices, costs, p, k, budget, sign=-1)
    return MlsSweepResult(worst, witnesses)
