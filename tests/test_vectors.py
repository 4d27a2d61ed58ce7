"""Vector structure: orthogonal families, rank, rotation, Gram matrices."""

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode
from mpslab import (Strategy, gen_bhs_basis, gen_family,
                    iter_strategies, max_orthogonal_subset,
                    positions_to_strategy, rank_of_universe, rotation_matrix,
                    validate_membership)
from mpslab.distribution import UniverseParams
from mpslab.oracle import BudgetExceeded
from mpslab.vectors import (apply_matrix, det, dot, gram, rank_of_vectors,
                            second_difference_matrix)


def test_family_examples():
    eta5 = gen_family("eta", 5)
    assert [m.actions for m in eta5.members] == [(1, 0, 0, 0, -1), (0, 1, 0, -1, 0)]
    theta5 = gen_family("theta", 5)
    assert theta5.members[0].actions == (0, 1, -2, 1, 0)
    lam8 = gen_family("lambda", 8)
    assert [m.actions for m in lam8.members] == [
        (1, -1, 0, 0, 0, 0, -1, 1), (0, 0, 1, -1, -1, 1, 0, 0)]
    eta2 = gen_family("eta", 2)
    assert [m.actions for m in eta2.members] == [(1, -1)]
    nu6 = gen_family("nu", 6)
    assert [m.actions for m in nu6.members] == [(1, -2, 1, 1, -2, 1)]


def test_family_counts():
    for n in range(2, 13):
        assert len(gen_family("eta", n).members) == (n - 2) // 2 + 1
        if n >= 4:
            assert len(gen_family("lambda", n).members) == n // 4
        if n >= 6:
            assert len(gen_family("nu", n).members) == (n - 6) // 6 + 1
        if n % 2 == 1:
            assert len(gen_family("theta", n).members) == 1


def test_family_preconditions():
    with pytest.raises(ValueError):
        gen_family("lambda", 3)
    with pytest.raises(ValueError):
        gen_family("nu", 5)
    with pytest.raises(ValueError):
        gen_family("theta", 4)
    with pytest.raises(ValueError):
        gen_family("sigma", 5)


def test_family_members_are_universe_members():
    for n in range(2, 13):
        kinds = ["eta"] + (["lambda"] if n >= 4 else []) \
            + (["nu"] if n >= 6 else []) + (["theta"] if n % 2 else [])
        for kind in kinds:
            for s in gen_family(kind, n).members:
                assert validate_membership(s, 1)


def test_families_mutually_orthogonal_within():
    for n in range(2, 13):
        for kind in ("eta", "lambda", "nu"):
            try:
                fam = gen_family(kind, n)
            except ValueError:
                continue
            for a, b in combinations(fam.members, 2):
                assert dot(a.actions, b.actions) == 0


def test_cross_family_orthogonality_table():
    for n in range(2, 13):
        eta = gen_family("eta", n).members
        lam = gen_family("lambda", n).members if n >= 4 else ()
        nu = gen_family("nu", n).members if n >= 6 else ()
        theta = gen_family("theta", n).members if n % 2 else ()
        for a in eta:
            for b in (*lam, *nu, *theta):
                assert dot(a.actions, b.actions) == 0   # eta _|_ everything listed
        # theta _|_ lambda wherever their supports are disjoint; at n = 5
        # and 9 one lambda vector overlaps the center triple with dot -2
        if theta and lam:
            dots = sorted(dot(a.actions, b.actions) for a in theta for b in lam)
            if n in (5, 9):
                assert dots[0] == -2 and all(d == 0 for d in dots[1:])
            else:
                assert all(d == 0 for d in dots)
        # lambda is NOT orthogonal to nu wherever both exist
        if lam and nu:
            assert any(dot(a.actions, b.actions) != 0 for a in lam for b in nu)
    # theta is NOT orthogonal to nu at n=7, where their supports touch;
    # for n=9 and 11 the supports are disjoint and they are orthogonal
    theta7 = gen_family("theta", 7).members
    nu7 = gen_family("nu", 7).members
    assert any(dot(a.actions, b.actions) != 0 for a in theta7 for b in nu7)
    for n in (9, 11):
        th = gen_family("theta", n).members
        nu = gen_family("nu", n).members
        assert all(dot(a.actions, b.actions) == 0 for a in th for b in nu)


def test_bhs_basis():
    bhs3 = gen_bhs_basis(3)
    assert [m.actions for m in bhs3.members] == [(1, 0, -1), (0, 1, -1)]
    assert gen_bhs_basis(2).members[0].actions == (1, -1)
    for s in gen_bhs_basis(6).members:
        assert sum(a * a for a in s.actions) == 2    # Euclidean length sqrt(2)
    # expansion (1,-2,1) = bhs1 - 2 bhs2
    b1, b2 = (m.actions for m in bhs3.members)
    assert tuple(x - 2 * y for x, y in zip(b1, b2)) == (1, -2, 1)


def test_every_small_strategy_expands_in_bhs_with_integer_coeffs():
    for n in (2, 3, 4):
        basis = [m.actions for m in gen_bhs_basis(n).members]
        for s in iter_strategies(UniverseParams(1, n)):
            coeffs = s.actions[:-1]   # U_1..U_{n-1} are the coordinates
            combo = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)]
            assert tuple(combo) == s.actions


def test_rank_of_universe():
    for n in range(2, 9):
        assert rank_of_universe(n) == n - 1
    assert rank_of_universe(3, limit=4) == 2


def test_rank_n3_orthogonal_basis_exists():
    basis = [(1, 0, -1), (1, -2, 1)]
    assert dot(*basis) == 0
    assert rank_of_vectors(basis) == 2
    for v in basis:
        assert validate_membership(Strategy(v), 1)


def test_max_orthogonal_subsets():
    assert max_orthogonal_subset(5).size == 3
    assert max_orthogonal_subset(7, budget=3 ** 6).size == 5
    result6 = max_orthogonal_subset(6)
    assert result6.size == 5
    for a, b in combinations(result6.witness, 2):
        assert dot(a.actions, b.actions) == 0


def test_max_orthogonal_published_witness_n6_is_valid():
    printed = [(1, 0, 0, 0, 0, -1), (0, 1, 0, 0, -1, 0), (0, 0, 1, -1, 0, 0),
               (1, 0, -1, -1, 0, 1), (1, -2, 1, 1, -2, 1)]
    for v in printed:
        assert validate_membership(Strategy(v), 1)
    for a, b in combinations(printed, 2):
        assert dot(a, b) == 0


def test_max_orthogonal_budget():
    with pytest.raises(BudgetExceeded):
        max_orthogonal_subset(9, budget=3 ** 6)


def test_max_orthogonal_witnesses_are_pinned():
    # the lexicographically smallest maxima, found by walking the universe in index order
    pinned = {
        2: [(-1, 1)],
        3: [(-1, 0, 1), (1, -2, 1)],
        4: [(-1, 0, 0, 1), (1, -1, -1, 1), (0, -1, 1, 0)],
        5: [(-1, 0, 0, 0, 1), (1, -2, 0, 0, 1), (0, 0, -1, 1, 0)],
        6: [(-1, 0, 0, 0, 0, 1), (1, 0, -2, 0, 0, 1), (1, -1, 1, -1, -1, 1),
            (0, -1, 0, 0, 1, 0), (0, 1, 0, -2, 1, 0)],
        7: [(-1, 0, 0, 0, 0, 0, 1), (1, -2, 0, 0, 0, 0, 1), (0, 0, -1, 0, 0, 1, 0),
            (0, 0, 1, -1, -1, 1, 0), (0, 0, 0, -1, 1, 0, 0)],
    }
    for n, witness in pinned.items():
        result = max_orthogonal_subset(n)
        assert (result.size, [s.actions for s in result.witness]) == (len(witness), witness)


def test_max_orthogonal_deterministic():
    a = max_orthogonal_subset(5)
    b = max_orthogonal_subset(5)
    assert a == b


def test_rotation_matrix():
    for n in (2, 3, 4, 5):
        r = rotation_matrix(n)
        identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        # R R^T = I
        assert [[sum(r[i][k] * r[j][k] for k in range(n)) for j in range(n)]
                for i in range(n)] == identity
        assert abs(det(r)) == 1
    assert det(rotation_matrix(3)) == 1
    assert det(rotation_matrix(5)) == 1    # odd cycle is an even permutation


def test_actions_are_positions_minus_rotated_positions():
    for n in (2, 3, 4, 5):
        p = UniverseParams(1, n)
        r = rotation_matrix(n)
        for idx in range(p.size):
            w = list(decode(idx, p).positions)
            shifted = apply_matrix(r, w)
            u = positions_to_strategy(decode(idx, p)).actions
            assert tuple(a - b for a, b in zip(w, shifted)) == u


def test_second_difference_matrix_shape():
    m = second_difference_matrix(5)
    for i in range(5):
        assert m[i][i] == 2
        assert sum(m[i]) == 0
        assert sum(row[i] for row in m) == 0
    assert m[0][4] == m[4][0] == -1
    assert m[0][1] == m[1][0] == -1


def test_gram_rank_and_identity():
    for n in (2, 3, 4):
        p = UniverseParams(1, n)
        strategies = [s.actions for s in iter_strategies(p)]
        g = gram(strategies)
        assert rank_of_vectors(g) == n - 1
        # G = W^T (2I - R - R^T) W, checked entrywise
        m = second_difference_matrix(n)
        positions = [decode(i, p).positions for i in range(p.size)]
        for a in range(len(positions)):
            for b in range(len(positions)):
                via = sum(positions[a][i] * m[i][j] * positions[b][j]
                          for i in range(n) for j in range(n))
                assert via == g[a][b]


def test_flat_price_orthogonal_to_universe():
    for w, n in ((1, 5), (2, 3)):
        flat = [7] * n
        for s in iter_strategies(UniverseParams(w, n)):
            assert dot(flat, s.actions) == 0


# --- the shared elimination against independent references -----------------

def _leibniz(m):
    """Sum over permutations of sign times the product of the chosen entries."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(m[i][j] for i, j in enumerate(perm))
    return total


def _frozen_rank(rows):
    """``rank_of_vectors`` as a Gauss-Jordan pass, before it shared ``det``'s
    forward elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    n_cols = len(m[0]) if m else 0
    while rank < len(m) and col < n_cols:
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def _frozen_det(matrix):
    """``det`` as the signed product of the pivots of a forward elimination on
    Fractions, before it became an integer elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    swaps = 0
    for col in range(len(m)):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != top:
            m[top], m[pivot] = m[pivot], m[top]
            swaps += 1
        p = m[top][col]
        for r in range(top + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / p
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(p)
    return (-1) ** swaps * prod(pivots, start=Fraction(1))


def _matrices(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _square(max_n):
    """Square matrices up to ``max_n``: a zero top-left entry forces a row
    swap, a repeated row makes the matrix singular."""
    return st.tuples(st.integers(0, max_n).flatmap(lambda n: _matrices(n, n)),
                     st.sampled_from(["as drawn", "zero corner", "repeated row"]))


def _shaped(drawn):
    m, shape = drawn
    if m and shape == "zero corner":
        m[0][0] = 0
    elif len(m) > 1 and shape == "repeated row":
        m[-1] = list(m[0])
    return m


@settings(max_examples=400, deadline=None)
@given(_square(5))
def test_det_is_the_leibniz_expansion(drawn):
    m = _shaped(drawn)
    result = det(m)
    assert type(result) is int and result == _leibniz(m)


@settings(max_examples=400, deadline=None)
@given(_square(7))
def test_det_matches_its_fraction_elimination(drawn):
    m = _shaped(drawn)
    assert det(m) == _frozen_det(m)


@pytest.mark.parametrize("m, expected", [
    ([], 1), ([[0, 1], [1, 0]], -1), ([[0, 2, 0], [0, 0, 3], [5, 0, 0]], 30),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1), ([[2, 4], [1, 2]], 0), ([[0, 1], [0, 1]], 0)])
def test_det_hand_cases(m, expected):
    assert det(m) == expected


@pytest.mark.parametrize("m", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]],
                               [[]]])
def test_det_refuses_a_non_square_matrix(m):
    with pytest.raises(ValueError, match="non-square"):
        det(m)


@settings(max_examples=400, deadline=None)
@given(st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(lambda rc: _matrices(*rc)))
def test_rank_matches_its_gauss_jordan_form(m):
    assert rank_of_vectors(m) == _frozen_rank(m)


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[], [0]], [[0, 0], [1, 0], [1]]])
def test_rank_refuses_rows_of_different_lengths(rows):
    with pytest.raises(ValueError, match="rows of different lengths"):
        rank_of_vectors(rows)
