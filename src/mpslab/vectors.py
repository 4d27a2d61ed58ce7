"""Linear-algebraic structure of the strategy universe.

The universe spans the hyperplane orthogonal to the flat price vector, so
its rank is n - 1; the buy-hold-sell strategies (buy one at tick i, sell at
tick n) form a basis of that hyperplane.  Four families of mutually
orthogonal strategies and a budget-guarded search for the largest mutually
orthogonal subset round out the toolkit.  Rank and determinant are read off
one fraction-free integer elimination, never floating point.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .distribution import UniverseParams
from .model import Strategy

FAMILY_KINDS = ("eta", "lambda", "nu", "theta", "bhs")


class OrthFamily(NamedTuple):
    kind: str
    n: int
    members: tuple[Strategy, ...]


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _vec(*chunks: Iterable[int]) -> Strategy:
    out: list[int] = []
    for c in chunks:
        out.extend(c)
    return Strategy(tuple(out))


def gen_family(kind: str, n: int) -> OrthFamily:
    """One of the named orthogonal families of W=1 strategies.

    eta:    (0^h, 1, 0^{n-2-2h}, -1, 0^h), h = 0..floor((n-2)/2)
    lambda: (0^{2l}, 1, -1, 0^{n-4-4l}, -1, 1, 0^{2l}), l = 0..floor(n/4)-1
    nu:     (0^{3v}, 1, -2, 1, 0^{n-6-6v}, 1, -2, 1, 0^{3v}), v = 0..floor((n-6)/6)
    theta:  the centered (1, -2, 1) for odd n
    """
    members: list[Strategy] = []
    if kind == "eta":
        if n < 2:
            raise ValueError("eta family needs n >= 2")
        for h in range((n - 2) // 2 + 1):
            members.append(_vec([0] * h, [1], [0] * (n - 2 - 2 * h), [-1], [0] * h))
    elif kind == "lambda":
        if n < 4:
            raise ValueError("lambda family needs n >= 4")
        for l in range(n // 4):
            members.append(_vec([0] * (2 * l), [1, -1], [0] * (n - 4 - 4 * l),
                                [-1, 1], [0] * (2 * l)))
    elif kind == "nu":
        if n < 6:
            raise ValueError("nu family needs n >= 6")
        for v in range((n - 6) // 6 + 1):
            members.append(_vec([0] * (3 * v), [1, -2, 1], [0] * (n - 6 - 6 * v),
                                [1, -2, 1], [0] * (3 * v)))
    elif kind == "theta":
        if n < 3 or n % 2 == 0:
            raise ValueError("theta family needs odd n >= 3")
        pad = (n - 3) // 2
        members.append(_vec([0] * pad, [1, -2, 1], [0] * pad))
    elif kind == "bhs":
        return gen_bhs_basis(n)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return OrthFamily(kind, n, tuple(members))


def gen_bhs_basis(n: int) -> OrthFamily:
    """The n-1 buy-hold-sell strategies e_i - e_n; a basis, length sqrt(2) each."""
    if n < 2:
        raise ValueError("need n >= 2")
    members = []
    for i in range(n - 1):
        v = [0] * n
        v[i] = 1
        v[-1] = -1
        members.append(Strategy(tuple(v)))
    return OrthFamily("bhs", n, tuple(members))


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Integer (Bareiss) forward elimination: the rows' rank, the row swaps
    made, and the last pivot, the determinant of square rows of full rank up
    to the swaps' sign.  ``(a*p - f*b) // prev`` is exact (Sylvester's identity)."""
    m = [list(row) for row in rows]
    width = len(m[0]) if m else 0
    if any(len(row) != width for row in m):
        raise ValueError("rows of different lengths")
    rank, swaps, prev = 0, 0, 1
    for col in range(width):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            swaps += 1
        top, p = m[rank], m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f or p != prev:
                m[r] = [(a * p - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
        rank += 1
    return rank, swaps, prev


def rank_of_vectors(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank: the number of pivots of the rows' elimination."""
    return _eliminate(rows)[0]


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant: the last pivot with the sign of the row swaps, or
    zero when a column has no pivot."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rank, swaps, last = _eliminate(matrix)
    return (-1) ** swaps * last if rank == n else 0


def rank_of_universe(n: int, limit: int = 1) -> int:
    """Rank of the strategy universe: n - 1 for any position limit.

    The buy-hold-sell set exhibits n - 1 independent members (rank computed
    exactly), and the flat price vector is orthogonal to every member, so
    the rank cannot reach n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if limit < 1:
        raise ValueError("position limit must be >= 1")
    basis = gen_bhs_basis(n)
    rank = rank_of_vectors([s.actions for s in basis.members])
    if rank != n - 1:
        raise AssertionError("buy-hold-sell set failed to have rank n-1")
    flat = [1] * n
    if any(dot(flat, s.actions) != 0 for s in basis.members):
        raise AssertionError("flat price vector must be orthogonal to the universe")
    return rank


class MaxOrthResult(NamedTuple):
    size: int
    witness: tuple[Strategy, ...]


def max_orthogonal_subset(n: int, budget: int = 3 ** 6) -> MaxOrthResult:
    """Largest mutually orthogonal subset of the W=1 universe for n ticks.

    Exhaustive branch-and-bound over the 3^(n-1) - 1 non-zero strategies in
    index order; the first maximum found is the lexicographically smallest.
    A universe larger than ``budget`` raises ``BudgetExceeded``.
    """
    from .oracle import iter_strategies  # loads numpy, which nothing else here needs

    vectors = [s.actions for s in iter_strategies(UniverseParams(1, n), budget)
               if not s.is_do_nothing()]
    count = len(vectors)
    # adjacency bitmasks of the orthogonality graph
    adj = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if dot(vectors[i], vectors[j]) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best_size = 0
    best: list[int] = []

    def extend(chosen: list[int], candidates: int):
        nonlocal best_size, best
        if not candidates:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = chosen.copy()
            return
        if len(chosen) + candidates.bit_count() <= best_size:
            return
        while candidates:
            low = candidates & -candidates
            i = low.bit_length() - 1
            candidates ^= low
            branch = candidates & adj[i]
            if len(chosen) + 1 + branch.bit_count() > best_size:
                chosen.append(i)
                extend(chosen, branch)
                chosen.pop()
            if len(chosen) + 1 + candidates.bit_count() <= best_size:
                return

    extend([], (1 << count) - 1)
    return MaxOrthResult(best_size, tuple(Strategy(vectors[i]) for i in best))


def rotation_matrix(n: int) -> list[list[int]]:
    """Cyclic coordinate shift R with R R^T = I."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = [[0] * n for _ in range(n)]
    m[0][n - 1] = 1
    for r in range(1, n):
        m[r][r - 1] = 1
    return m


def second_difference_matrix(n: int) -> list[list[int]]:
    """2I - R - R^T: twos on the diagonal, -1 off-diagonals and corners."""
    r = rotation_matrix(n)
    return [[2 * (i == j) - r[i][j] - r[j][i] for j in range(n)] for i in range(n)]


def gram(strategy_columns: Sequence[Sequence[int]]) -> list[list[int]]:
    """Gram matrix U^T U for strategies given as columns."""
    cols = [tuple(c) for c in strategy_columns]
    return [[dot(a, b) for b in cols] for a in cols]


def apply_matrix(m: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [dot(row, v) for row in m]
