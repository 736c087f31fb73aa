"""Unit tests for diagram orientations and roots."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimercluster.base_graph import BaseGraph
from dimercluster.mutation_oracle import initial_seed
from dimercluster.quiver_core import (
    Quiver,
    all_orientations,
    dynkin_edges,
    format_quiver,
    graded_lex_sorted,
    is_positive_root,
    parse_int,
    parse_quiver,
    positive_roots,
)
from reference import (
    cartan_matrix,
    roots_by_ranges,
    roots_by_reflection,
    topological_order_by_kahn,
)


# ---- [TRIVIAL] diagram shape ------------------------------------------------


def test_dynkin_edges_small_ranks():
    assert dynkin_edges(4) == ((0, 1), (1, 2), (1, 3))
    assert dynkin_edges(5) == ((0, 1), (1, 2), (2, 3), (2, 4))
    assert dynkin_edges(6) == ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5))


def test_rank_floor():
    with pytest.raises(ValueError):
        dynkin_edges(3)


def test_cartan_matrix_rank4():
    expected = (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    assert cartan_matrix(4) == expected


# ---- [TRIVIAL] quiver construction -----------------------------------------


def test_quiver_requires_every_edge_once():
    with pytest.raises(ValueError):
        Quiver(4, [(0, 1), (1, 2)])  # (1,3) unoriented
    with pytest.raises(ValueError):
        Quiver(4, [(0, 1), (1, 0), (1, 2), (1, 3)])  # (0,1) twice
    with pytest.raises(ValueError):
        Quiver(4, [(0, 2), (1, 2), (1, 3)])  # (0,2) not an edge


def test_arrow_sign_and_neighbors():
    # the arrows are the orientation's one form: the seed's top block, -B, is
    # -1 at (t, h) and +1 at (h, t) for an arrow t -> h, and 0 between
    # vertices the diagram does not join
    q = Quiver(5, [(1, 0), (2, 1), (3, 2), (2, 4)])
    top = initial_seed(q).ext[:5]
    assert top[2][1] == -1
    assert top[1][2] == 1
    assert top[0][3] == 0
    assert BaseGraph(q).sigma == 1  # 1 -> 0: the first edge points down-index


def test_exchange_matrix_sign_convention():
    # b[i][j] = +1 exactly when i -> j, read off the seed's top block -B
    q = Quiver(4, [(0, 1), (2, 1), (1, 3)])
    b = tuple(tuple(-x for x in row) for row in initial_seed(q).ext[:4])
    assert b[0][1] == 1 and b[1][0] == -1
    assert b[2][1] == 1 and b[1][2] == -1
    assert b[1][3] == 1 and b[3][1] == -1
    assert b == tuple(tuple(-x for x in col) for col in zip(*b))
    assert BaseGraph(q).sigma == 0  # 0 -> 1 pins the coloring


def test_topological_order_tails_first():
    q = Quiver(6, [(1, 0), (2, 1), (3, 2), (4, 3), (3, 5)])
    order = q.topological_order()
    pos = {v: k for k, v in enumerate(order)}
    for t, h in q.arrows:
        assert pos[t] < pos[h]


def test_topological_order_equals_the_frozen_kahn_loop_ranks_4_to_10():
    # the walk returns at the mutation that fills the atlas, so its mutation
    # count depends on this exact order, not only on tails coming first
    for n in range(4, 11):
        for q in all_orientations(n):
            assert q.topological_order() == topological_order_by_kahn(q)


def test_all_orientations_count_and_uniqueness():
    for n in (4, 5):
        qs = all_orientations(n)
        assert len(qs) == 2 ** (n - 1)
        assert len(set(qs)) == len(qs)


def test_tips_swapped_relabels_the_fork_tips():
    q = Quiver(5, [(0, 1), (1, 2), (2, 3), (4, 2)])
    assert q.tips_swapped() == Quiver(5, [(0, 1), (1, 2), (2, 4), (3, 2)])


def test_tips_swapped_is_an_involution_fixing_half_the_orientations():
    for n in range(4, 9):
        quivers = all_orientations(n)
        mirrors = [q.tips_swapped() for q in quivers]
        assert set(mirrors) == set(quivers)
        assert [m.tips_swapped() for m in mirrors] == quivers
        assert sum(m == q for m, q in zip(mirrors, quivers)) == len(quivers) // 2



def test_reversed_is_an_involution_fixing_no_orientation_and_commuting_with_the_tip_swap():
    # so each ⟨σ, ρ⟩ orbit has 2 members (σQ = Q) or 4
    assert Quiver(4, [(0, 1), (2, 1), (1, 3)]).reversed() == Quiver(4, [(1, 0), (1, 2), (3, 1)])
    for n in range(4, 9):
        for q in all_orientations(n):
            r = q.reversed()
            assert r.reversed() == q != r
            assert r.tips_swapped() == q.tips_swapped().reversed() != q


@pytest.mark.parametrize("n, orbits", [(4, 3), (5, 6), (6, 12), (7, 24)])
def test_orbit_lists_q_sigma_q_rho_q_and_sigma_rho_q_once_each(n, orbits):
    quivers = all_orientations(n)
    grouped = []
    for q in quivers:
        orbit = q.orbit()
        assert orbit[0] == (q, (False, False))
        fixed = q.tips_swapped() == q
        moves = [(False, False)] + ([] if fixed else [(True, False)]) + [(False, True)]
        assert [m for _, m in orbit] == moves + ([] if fixed else [(True, True)])
        for member, (swap, reverse) in orbit:
            moved = q.tips_swapped() if swap else q
            assert member == (moved.reversed() if reverse else moved)
        members = {member for member, _ in orbit}
        assert len(members) == len(orbit) == (2 if fixed else 4)
        for member in members:  # every member has the same orbit
            assert {m for m, _ in member.orbit()} == members
        if members not in grouped:
            grouped.append(members)
    assert len(grouped) == orbits
    assert sum(map(len, grouped)) == len(quivers) == len(set().union(*grouped))


# ---- [TRIVIAL] parsing ------------------------------------------------------


def test_parse_roundtrip():
    q = Quiver(6, [(1, 0), (2, 1), (3, 2), (4, 3), (3, 5)])
    assert parse_quiver(format_quiver(q)) == q
    assert parse_quiver("n=4; 0>1, 1>2,1>3") == Quiver(4, [(0, 1), (1, 2), (1, 3)])


@pytest.mark.parametrize(
    "bad",
    [
        "4; 0>1",
        "n=four; 0>1",
        "n=4; 0-1, 1>2, 1>3",
        "n=4; 0>x, 1>2, 1>3",
        "n=4",
        "n=\uff14; 0>1, 1>2, 1>3",
        "n=0_4; 0>1, 1>2, 1>3",
        "n=4; 0>1, 1>\u0662, 1>3",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_quiver(bad)


@pytest.mark.parametrize("text, value", [("4", 4), (" +4 ", 4), ("-12", -12), ("007", 7)])
def test_parse_int_reads_ascii_digits_with_a_sign_and_spaces(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("bad", ["", "+", "4_0", "\uff14", "\u0664", "1.0", "0x4", "- 4"])
def test_parse_int_rejects_underscores_other_digits_and_other_forms(bad):
    with pytest.raises(ValueError):
        parse_int(bad)


# ---- positive roots ---------------------------------------------------------


def brute_force_roots(n):
    """[DERIVED] oracle: vectors d in {0,1,2}^n with d^T A d == 2."""
    a = cartan_matrix(n)
    out = []
    for d in itertools.product(range(3), repeat=n):
        ad = [sum(x * y for x, y in zip(row, d)) for row in a]
        if sum(x * y for x, y in zip(d, ad)) == 2 and any(d):
            out.append(d)
    out.sort(key=lambda d: (sum(d), d))
    return out


@pytest.mark.parametrize("n", [4, 5, 6])
def test_positive_roots_match_quadratic_form_oracle(n):
    assert positive_roots(n) == brute_force_roots(n)


def test_positive_roots_equal_the_reflection_closure_ranks_4_to_30():
    for n in range(4, 31):
        assert positive_roots(n) == roots_by_reflection(n), n
    # and the explicit-range builder, which is cheap enough to go further
    for n in range(4, 61):
        assert positive_roots(n) == roots_by_ranges(n), n


def test_is_positive_root_equals_membership_ranks_4_to_7():
    # every vector with entries -1..3 at ranks 4-6, and 0..2 at rank 7
    for n in (4, 5, 6, 7):
        roots = set(positive_roots(n))
        values = range(3) if n == 7 else range(-1, 4)
        for d in itertools.product(values, repeat=n):
            assert is_positive_root(n, d) == (d in roots), d


def test_root_counts():
    # [PAPER] the rank-n system has n(n-1) positive roots
    for n in (4, 5, 6, 7):
        assert len(positive_roots(n)) == n * (n - 1)


def test_highest_root_rank4():
    # [PAPER] highest root has entry 2 at the branch node
    assert positive_roots(4)[-1] == (1, 2, 1, 1)


def test_positive_roots_returns_a_fresh_list():
    roots = positive_roots(5)
    expected = list(roots)
    roots.append((9, 9, 9, 9, 9))
    roots[0] = (0, 0, 0, 0, 0)
    assert positive_roots(5) == expected
    assert not is_positive_root(5, (9, 9, 9, 9, 9))
    assert is_positive_root(5, expected[0])


def test_is_positive_root():
    assert is_positive_root(6, (0, 1, 1, 2, 1, 1))
    assert not is_positive_root(6, (0, 1, 0, 2, 1, 1))
    assert not is_positive_root(6, (0, 1, 1, 2, 1))
    assert not is_positive_root(4, (0, 0, 0, 0))
    # entries are tested as given, not truncated to (1, 1, 2, 1, 1)
    assert not is_positive_root(5, (1.9, 1, 2, 1, 1))
    # a rank far past any list of the roots
    assert is_positive_root(3000, (1,) + (2,) * 2997 + (1, 1))
    assert not is_positive_root(3000, (2,) * 2998 + (1, 1))


def test_roots_entries_bounded_random():
    # [DERIVED] every root entry is 0,1,2; entries 2 form a connected run
    # containing the branch node only
    rng = random.Random(11)
    for n in (4, 5, 6):
        roots = positive_roots(n)
        for d in rng.sample(roots, min(12, len(roots))):
            assert all(0 <= x <= 2 for x in d)
            twos = [i for i, x in enumerate(d) if x == 2]
            if twos:
                assert all(i <= n - 3 for i in twos)


# ---- graded-lex order ----------------------------------------------------------


def _graded_lex(e):
    return (sum(e), e)


# vectors of one width 0-28 with entries in -2..2, so degrees repeat often
_vector_lists = st.integers(min_value=0, max_value=28).flatmap(
    lambda width: st.lists(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * width), max_size=40
    )
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_vector_lists)
def test_graded_lex_sorted_is_the_degree_then_vector_sort(vectors):
    assert graded_lex_sorted(vectors) == sorted(vectors, key=_graded_lex)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_vector_lists, st.randoms(use_true_random=False))
def test_graded_lex_sorted_by_a_key_keeps_ties_in_input_order(vectors, rng):
    # items with equal vectors stay in the order given, as with sorted()
    items = [(e, tag) for tag, e in enumerate(vectors)]
    rng.shuffle(items)
    got = graded_lex_sorted(items, key=lambda item: item[0])
    assert got == sorted(items, key=lambda item: _graded_lex(item[0]))
