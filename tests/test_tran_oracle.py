"""Unit tests for the closed-form exponent-vector oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimercluster.tran_oracle
from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.mutation_oracle import (
    f_polynomial_from_expansion,
    g_vector_from_expansion,
    walk_cluster_variables,
)
from dimercluster.quiver_core import (
    _PATH_RUNS,
    Quiver,
    all_orientations,
    dynkin_edges,
    is_positive_root,
    parse_quiver,
    positive_roots,
)
from dimercluster.flip_poset import FlipPoset
from dimercluster.tran_oracle import poset_size, tran_f_polynomial, tran_g_vector

from frozen import (
    COEFF2_E_QB,
    D5,
    D6,
    F_QA_AT_ONES,
    F_QA_COEFF2,
    F_QA_DUPLICATE_FIX,
    F_QA_TERM_COUNT,
    F_QC,
    G_QA,
    G_QB,
    G_QC,
    POLY_EXCLUDED_QA,
    QA,
    QB,
    QC,
)
import reference
from reference import (
    acceptable_evectors,
    arrow_conditions_hold,
    arrow_valid_count,
    arrow_valid_count_by_tree_steps,
    poset_size_by_charge_steps,
    poset_size_by_pairs,
    tran_f_polynomial_by_charge_steps,
    tran_f_polynomial_by_box,
    tran_f_polynomial_by_tree_walk,
)
from test_cli import alternating, highest_root
from test_oracle_properties import instances
from test_reversal_duality import dual, minus_cartan_times, tips_swapped


# ---- [TRIVIAL] basic conditions ----------------------------------------------


def test_box_constraint():
    assert not arrow_conditions_hold(QC, D5, (0, 0, 3, 0, 0))
    assert not arrow_conditions_hold(QC, D5, (0, -1, 0, 0, 0))
    assert arrow_conditions_hold(QC, D5, (0, 0, 0, 0, 0))
    assert arrow_conditions_hold(QC, D5, D5)


def test_arrow_inequality():
    # arrow 2 -> 1 allows e2 - e1 <= 1; arrow 3 -> 2 allows e3 - e2 <= 0
    assert arrow_conditions_hold(QC, D5, (0, 0, 1, 0, 1))
    assert not arrow_conditions_hold(QC, D5, (0, 0, 2, 0, 1))
    assert not arrow_conditions_hold(QC, D5, (0, 0, 0, 1, 0))


def test_rejects_non_roots():
    with pytest.raises(ValueError):
        tran_f_polynomial(QC, (1, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        tran_g_vector(QA, (0, 0, 0, 0, 0, 0))


# ---- coefficient logic ---------------------------------------------------------
# every vector below passes the box and every arrow, so its coefficient comes
# from the charges


def coefficient(quiver, d, e):
    """The coefficient of u^e in the closed-form F-polynomial."""
    assert arrow_conditions_hold(quiver, d, e)
    return tran_f_polynomial(quiver, d).coefficient(e)


def test_double_charge_kills_monomial():
    # [DERIVED] e with both branch entries at 1 but bare neighbors: two
    # critical arrows charge one component, so the coefficient vanishes
    assert coefficient(QA, D6, POLY_EXCLUDED_QA) == 0
    # the same pattern at rank 5
    assert coefficient(QC, D5, (1, 0, 1, 0, 0)) == 0


def test_single_charge_gives_one():
    assert coefficient(QC, D5, (0, 0, 1, 0, 1)) == 1
    assert coefficient(QC, D5, (1, 0, 1, 0, 1)) == 1


def test_uncharged_component_doubles():
    assert coefficient(QC, D5, (1, 1, 1, 0, 1)) == 2
    assert coefficient(QB, D6, COEFF2_E_QB) == 2


def test_empty_s_gives_one():
    assert coefficient(QC, D5, (0, 0, 0, 0, 0)) == 1
    assert coefficient(QC, D5, D5) == 1


# ---- frozen instances -----------------------------------------------------------


def test_rank5_f_polynomial_frozen():
    # [PAPER] the full 13-term F-polynomial
    assert tran_f_polynomial(QC, D5) == LaurentPolynomial(u_context(5), F_QC)
    assert acceptable_evectors(QC, D5) == sorted(F_QC, key=lambda e: (sum(e), e))


def test_rank6_f_polynomial_corrected():
    # [DERIVED] corrected 24-monomial support for (QA, D6)
    f = tran_f_polynomial(QA, D6)
    assert len(f.terms) == F_QA_TERM_COUNT
    assert sum(f.terms.values()) == F_QA_AT_ONES
    for e in F_QA_COEFF2:
        assert f.coefficient(e) == 2
    assert f.coefficient(F_QA_DUPLICATE_FIX) == 1


def test_g_vectors_frozen():
    assert tran_g_vector(QC, D5) == G_QC
    assert tran_g_vector(QA, D6) == G_QA
    assert tran_g_vector(QB, D6) == G_QB


# ---- cross-validation against the mutation engine -------------------------------


def test_matches_mutation_engine_rank4_exhaustive():
    # [DERIVED] both routes agree on every orientation and root at rank 4
    for q in all_orientations(4):
        atlas = walk_cluster_variables(q)
        for d in positive_roots(4):
            var = atlas[d]
            assert tran_f_polynomial(q, d) == f_polynomial_from_expansion(var, 4)
            assert tran_g_vector(q, d) == g_vector_from_expansion(var, 4)


def test_matches_mutation_engine_frozen_instances():
    for quiver, d in ((QC, D5), (QA, D6), (QB, D6)):
        n = quiver.n
        var = walk_cluster_variables(quiver)[d]
        assert tran_f_polynomial(quiver, d) == f_polynomial_from_expansion(var, n)
        assert tran_g_vector(quiver, d) == g_vector_from_expansion(var, n)


def test_reversing_every_arrow_reads_e_as_d_minus_e_ranks_4_to_7():
    # [DERIVED] Q^op's representations are Q's duals, Gr_e(DM) ≅ Gr_{d-e}(M):
    # F of Q^op has the term {d - e: c} for each term {e: c} of Q's, and
    # g + g^op = -C d
    checked = 0
    for n in (4, 5, 6, 7):
        for q in all_orientations(n):
            op = q.reversed()
            for d in positive_roots(n):
                f_terms = tran_f_polynomial(q, d).terms
                assert tran_f_polynomial(op, d).terms == {dual(d, e): c for e, c in f_terms.items()}
                g, op_g = tran_g_vector(q, d), tran_g_vector(op, d)
                assert tuple(map(sum, zip(g, op_g))) == minus_cartan_times(d), (q, d)
                checked += 1
    assert checked == 4064  # every orientation x root instance


def test_simple_root_f_is_binomial_like():
    # [DERIVED] for a simple root the F-polynomial is 1 + u_i
    for q in (QC, QA):
        n = q.n
        for i in range(n):
            d = tuple(int(k == i) for k in range(n))
            f = tran_f_polynomial(q, d)
            assert f == LaurentPolynomial(
                u_context(n), {(0,) * n: 1, d: 1}
            )


# ---- the tree walk against the frozen box scan ----------------------------------


def box_arrow_vectors(quiver, d):
    """Every vector of the box that passes every arrow inequality, by scanning
    the whole box."""
    slack = [(t, h, max(d[t] - d[h], 0)) for t, h in quiver.arrows]
    return {
        e
        for e in itertools.product(*(range(x + 1) for x in d))
        if all(e[t] - e[h] <= s for t, h, s in slack)
    }


def test_tree_walk_equals_box_scan_ranks_4_to_7():
    checked = 0
    for n in (4, 5, 6, 7):
        roots = positive_roots(n)
        for q in all_orientations(n):
            for d in roots:
                assert tran_f_polynomial(q, d) == tran_f_polynomial_by_box(q, d), (q, d)
                assert arrow_valid_count(q, d) == len(box_arrow_vectors(q, d)), (q, d)
                checked += 1
    assert checked == 4064  # every orientation x root instance


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(instances(8, 10))
def test_tree_walk_equals_box_scan_ranks_8_to_10(instance):
    quiver, d = instance
    assert tran_f_polynomial(quiver, d) == tran_f_polynomial_by_box(quiver, d)
    assert arrow_valid_count(quiver, d) == len(box_arrow_vectors(quiver, d))


def test_rank13_scores_only_the_vectors_that_pass_every_arrow(monkeypatch):
    # the linear orientation's highest root: a box of 472,392 vectors, 113 of
    # which pass every arrow and 100 of which are terms
    quiver = parse_quiver("n=13; 1>0, 2>1, 3>2, 4>3, 5>4, 6>5, 7>6, 8>7, 9>8, 10>9, 11>10, 12>10")
    d = (1,) + (2,) * 10 + (1, 1)
    scored = []
    original = reference._rule_coefficient

    def counted(steps, dd, e):
        scored.append(e)
        return original(steps, dd, e)

    monkeypatch.setattr(reference, "_rule_coefficient", counted)
    f = reference.tran_f_polynomial_by_rule_walk(quiver, d)
    valid = box_arrow_vectors(quiver, d)
    assert len(scored) == len(valid) == arrow_valid_count(quiver, d) == 113
    assert set(scored) == valid
    assert len(f.terms) == 100
    assert tran_f_polynomial(quiver, d) == f


def test_the_rules_are_the_frozen_rules_with_join_read_as_keep():
    # the move table is the four-kind table composed with the charge step,
    # and that table is the five-kind one with v joining u's component of S
    # read as v off S
    rules = dimercluster.tran_oracle._RULES
    assert rules.keys() == reference._KIND_RULES.keys() == reference._RULES.keys()
    assert len(rules) == 18
    for key, frozen in reference._KIND_RULES.items():
        five = reference._RULES[key]
        join_as_keep = {reference._JOIN: reference._KEEP}
        assert frozen == [{y: join_as_keep.get(k, k) for y, k in row.items()} for row in five]
        assert len(rules[key]) == len(frozen), key
        for x, kinds in enumerate(frozen):
            for c in (-1, 0, 1):
                moves = []
                for y, kind in kinds.items():
                    step = reference._charge_step((c, 0), kind)
                    if step:
                        moves.append((y, step[0], step[1]))
                assert rules[key][x][c] == tuple(moves), (key, x, c)


def test_arrow_valid_count_bounds_the_poset(sweep4, sweep5):
    for sweep in (sweep4, sweep5):
        for entry in sweep.entries:
            for d, poset in entry.posets.items():
                assert arrow_valid_count(entry.quiver, d) >= len(poset.elements)


def test_support_count_equals_the_count_over_every_edge_ranks_4_to_8():
    checked = 0
    for n in range(4, 9):
        roots = positive_roots(n)
        for q in all_orientations(n):
            for d in roots:
                assert arrow_valid_count(q, d) == arrow_valid_count_by_tree_steps(q, d), (q, d)
                checked += 1
    assert checked == sum(2 ** (n - 1) * n * (n - 1) for n in range(4, 9))


def test_poset_size_takes_only_the_steps_inside_the_support(monkeypatch):
    # an edge into a vertex with d_v = 0 has one move and charges nothing
    taken = []
    original = dimercluster.tran_oracle._support_steps

    def counted(quiver, d):
        r, top, steps = original(quiver, d)
        taken.extend((u, v) for u, v, _ in steps)
        return r, top, steps

    monkeypatch.setattr(dimercluster.tran_oracle, "_support_steps", counted)
    n = 224
    quiver = Quiver(n, [(b, a) for a, b in dynkin_edges(n)])
    d = (0,) * 100 + (1,) * 5 + (0,) * (n - 105)
    # e_v <= e_u along each arrow v -> u: the 6 non-increasing 0/1 runs
    assert poset_size(quiver, d) == 6
    assert sorted(taken) == [(v - 1, v) for v in range(101, 105)]


@st.composite
def oriented_roots(draw, lo, hi):
    """A rank in [lo, hi], an orientation drawn edge by edge and a root."""
    n = draw(st.integers(lo, hi))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    arrows = [(b, a) if f else (a, b) for (a, b), f in zip(dynkin_edges(n), flips)]
    return Quiver(n, arrows), draw(st.sampled_from(positive_roots(n)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(oriented_roots(9, 14))
def test_support_count_equals_the_count_over_every_edge_ranks_9_to_14(instance):
    quiver, d = instance
    assert arrow_valid_count(quiver, d) == arrow_valid_count_by_tree_steps(quiver, d)


def test_arrow_valid_count_rejects_non_roots():
    with pytest.raises(ValueError):
        arrow_valid_count(QC, (1, 0, 0, 0, 1))


def test_poset_size_rejects_non_roots():
    with pytest.raises(ValueError):
        poset_size(QC, (1, 0, 0, 0, 1))


# ---- the exact count from the rule table ------------------------------------------


def test_poset_size_is_the_flip_posets_size_ranks_4_to_6(sweep4, sweep5, sweep6):
    checked = 0
    for sweep in (sweep4, sweep5, sweep6):
        for entry in sweep.entries:
            for d, poset in entry.posets.items():
                size = poset_size(entry.quiver, d)
                assert size == len(poset.elements) <= arrow_valid_count(entry.quiver, d), d
                checked += 1
    assert checked == 96 + 320 + 960


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(instances(7, 10))
def test_poset_size_is_the_flip_posets_size_ranks_7_to_10(instance):
    quiver, d = instance
    size = poset_size(quiver, d)
    assert size == len(FlipPoset(quiver, d).elements) <= arrow_valid_count(quiver, d)


def test_poset_size_counts_the_terms_of_the_frozen_walk_ranks_4_to_7():
    checked = 0
    for n in (4, 5, 6, 7):
        roots = positive_roots(n)
        for q in all_orientations(n):
            for d in roots:
                f = tran_f_polynomial(q, d)
                assert f == tran_f_polynomial_by_tree_walk(q, d), (q, d)
                assert f == reference.tran_f_polynomial_by_rule_walk(q, d), (q, d)
                size = poset_size(q, d)
                assert size == len(f.terms) <= arrow_valid_count(q, d), (q, d)
                assert size == poset_size_by_pairs(q, d), (q, d)
                checked += 1
    assert checked == 4064  # every orientation x root instance


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(oriented_roots(8, 14))
def test_poset_size_counts_the_terms_ranks_8_to_14(instance):
    quiver, d = instance
    f = tran_f_polynomial(quiver, d)
    assert f == reference.tran_f_polynomial_by_rule_walk(quiver, d)
    size = poset_size(quiver, d)
    assert size == len(f.terms) <= arrow_valid_count(quiver, d)
    assert size == poset_size_by_pairs(quiver, d)


def test_the_walks_are_the_frozen_charge_step_walks_ranks_4_to_8():
    # every orientation, so the images under rho and sigma are all checked
    checked = 0
    for n in range(4, 9):
        roots = positive_roots(n)
        for q in all_orientations(n):
            for d in roots:
                f = tran_f_polynomial(q, d)
                assert f == tran_f_polynomial_by_charge_steps(q, d), (q, d)
                assert poset_size(q, d) == poset_size_by_charge_steps(q, d) == len(f.terms)
                checked += 1
    assert checked == 11_232


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(oriented_roots(9, 14))
def test_the_walks_are_the_frozen_charge_step_walks_ranks_9_to_14(instance):
    quiver, d = instance
    f = tran_f_polynomial(quiver, d)
    assert f == tran_f_polynomial_by_charge_steps(quiver, d)
    size = poset_size(quiver, d)
    assert size == poset_size_by_charge_steps(quiver, d) == len(f.terms)
    op, swapped = tran_f_polynomial(quiver.reversed(), d), tran_f_polynomial(
        quiver.tips_swapped(), tips_swapped(d)
    )
    assert op.terms == {dual(d, e): c for e, c in f.terms.items()}
    assert swapped.terms == {tips_swapped(e): c for e, c in f.terms.items()}
    assert poset_size(quiver.reversed(), d) == size
    assert poset_size(quiver.tips_swapped(), tips_swapped(d)) == size


@st.composite
def long_oriented_roots(draw, lo, hi):
    """A rank in [lo, hi], an orientation drawn edge by edge and a root
    drawn from the closed form (``_PATH_RUNS``) without listing the roots:
    a tip pair, a run pattern it admits, and where each run starts."""
    n = draw(st.integers(lo, hi))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    arrows = [(b, a) if f else (a, b) for (a, b), f in zip(dynkin_edges(n), flips)]
    tips = draw(st.sampled_from(sorted(_PATH_RUNS)))
    runs = draw(st.sampled_from(_PATH_RUNS[tips]))
    places = st.integers(0, n - 3)
    starts = draw(st.lists(places, min_size=len(runs), max_size=len(runs), unique=True))
    path = [0] * (n - 2)
    for s, x in zip(sorted(starts), runs):
        path[s:] = [x] * (n - 2 - s)
    return Quiver(n, arrows), tuple(path) + tips


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(long_oriented_roots(15, 224))
def test_poset_size_is_the_frozen_pair_count_ranks_15_to_224(instance):
    quiver, d = instance
    assert is_positive_root(quiver.n, d)
    size = poset_size(quiver, d)
    assert size == poset_size_by_pairs(quiver, d) <= arrow_valid_count(quiver, d)
    assert size == poset_size_by_charge_steps(quiver, d)
    assert poset_size(quiver.reversed(), d) == size
    assert poset_size(quiver.tips_swapped(), tips_swapped(d)) == size


# ---- pins past the caps --------------------------------------------------------


@pytest.mark.parametrize(
    "n, size", [(16, 249_561), (17, 560_761), (40, 68_479_304_440_820)]
)
def test_poset_size_of_the_alternating_highest_root_past_the_caps(n, size):
    quiver = parse_quiver(alternating(n))
    d = tuple(map(int, highest_root(n).split(",")))
    assert poset_size(quiver, d) == poset_size_by_charge_steps(quiver, d) == size
    assert poset_size(quiver.reversed(), d) == size
    assert poset_size(quiver.tips_swapped(), tips_swapped(d)) == size


def test_f_of_the_alternating_rank_14_highest_root():
    quiver = parse_quiver(alternating(14))
    d = tuple(map(int, highest_root(14).split(",")))
    f = tran_f_polynomial(quiver, d)
    assert len(f.terms) == 49_427
    assert sum(f.terms.values()) == 229_969
    assert f == tran_f_polynomial_by_charge_steps(quiver, d)
