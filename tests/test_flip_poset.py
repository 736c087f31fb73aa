"""Unit tests for the flip poset and its lattice structure."""

import copy
import itertools
import random
import re

import pytest

from dimercluster.base_graph import BaseGraph
from dimercluster.cluster_invariants import dimer_invariants
from dimercluster import flip_poset
from dimercluster.flip_poset import FlipPoset
from dimercluster.mixed_dimer import minimal_matching
from dimercluster.mutation_oracle import expansion_from_f_and_g
from dimercluster.quiver_core import Quiver, all_orientations, positive_roots
from dimercluster.tran_oracle import tran_f_polynomial

from frozen import D5, D6, N5_WITNESS_QC, POLY_EXCLUDED_QA, POSET_COVERS_QC, QA, QC
import reference
from reference import acceptable_evectors, is_flippable


@pytest.fixture(scope="module")
def poset_qc():
    return FlipPoset(QC, D5)


@pytest.fixture(scope="module")
def poset_qa():
    return FlipPoset(QA, D6)


# ---- [DERIVED] frozen rank-5 poset ------------------------------------------------


def test_rank5_elements_and_covers(poset_qc):
    assert len(poset_qc.elements) == 13
    expected = {e: sorted(v) for e, v in POSET_COVERS_QC.items()}
    got = {e: sorted(v) for e, v in poset_qc.covers.items() if v}
    assert got == expected
    assert poset_qc.elements[0] == (0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "d",
    [
        (1, 1, 1, 1, 2),  # in the box of a root, but no root
        (0, 0, 0, 0, 0),
        (3, 0, 0, 0, 0),
        (1, 1, 2, 1, 1, 1),  # a rank-5 root with one entry too many
        (1.5, 1, 2, 1, 1),  # truncates to a root, but is none
    ],
)
def test_rejects_non_roots(d):
    message = "%r is not a positive root of the rank-5 system" % (d,)
    with pytest.raises(ValueError, match=re.escape(message)):
        FlipPoset(QC, d)


def test_coefficients_are_one_dict_keyed_like_the_weights():
    # the weights are read off the Laurent terms x^(wt - d) * y^e, keyed by e
    poset = FlipPoset(QC, D5)
    f, g = dimer_invariants(poset)
    weights = {x[5:]: x[:5] for x in expansion_from_f_and_g(QC, f, g).terms}
    assert set(poset.coefficients) == set(weights) == set(poset.elements)
    assert f.terms == poset.coefficients


def with_table(graph, name, i, value):
    """A copy of graph whose table ``name`` has value at position i."""
    clone = copy.copy(graph)
    table = list(getattr(graph, name))
    table[i] = value
    setattr(clone, name, tuple(table))
    return clone


def test_a_flip_that_disagrees_with_the_closed_form_is_refused():
    graph = BaseGraph(QC)
    start = minimal_matching(graph, D5)
    i = next(i for i in range(5) if is_flippable(graph, D5, start, i))
    delta = dict(graph.flip_deltas[i])
    wb_side = next(edge for edge, m in delta.items() if m == 1)
    delta[wb_side] = 2
    broken = with_table(graph, "flip_deltas", i, tuple(delta.items()))
    message = "the flip at tile %d disagrees with the closed form" % i
    with pytest.raises(AssertionError, match=re.escape(message)):
        broken._check_flips()


def test_a_flip_that_needs_too_few_sides_is_refused():
    # with one bw-side (a -1 entry) dropped from the flip's column, a flip
    # at tile 2 could take that side to multiplicity -1
    graph = BaseGraph(QC)
    deltas = list(graph.flip_deltas[2])
    deltas.remove(next(x for x in deltas if x[1] < 0))
    broken = with_table(graph, "flip_deltas", 2, tuple(deltas))
    message = "the flip at tile 2 disagrees with the closed form"
    with pytest.raises(AssertionError, match=re.escape(message)):
        broken._check_flips()


def test_a_swapped_weight_label_fails_the_per_graph_check():
    # a weighted edge is a boundary side of one tile, whose flip then moves
    # the weight along the wrong variable
    graph = BaseGraph(QC)
    k, label = graph.weighted_edges[0]
    tile = next(i for i, deltas in enumerate(graph.flip_deltas) if k in dict(deltas))
    broken = with_table(graph, "weighted_edges", 0, (k, (label + 1) % 5))
    message = "the flip at tile %d changes the x-weight by" % tile
    with pytest.raises(AssertionError, match=re.escape(message)):
        broken._check_flips()


def test_a_minimal_matching_with_a_corner_total_past_2_is_refused(monkeypatch):
    # the support pass relies on totals of at most 2, which flips keep
    graph = BaseGraph(QC)
    start = minimal_matching(graph, D5)
    k = next(k for k, m in enumerate(start) if m)
    heavy = start[:k] + (start[k] + 2,) + start[k + 1 :]
    corner = graph.edges[k][0]
    total = sum(heavy[j] for j, _ in graph.incidence[graph.corners.index(corner)])
    monkeypatch.setattr(flip_poset, "minimal_matching", lambda graph, d: heavy)
    message = "the minimal matching meets corner %r %d times" % (corner, total)
    with pytest.raises(AssertionError, match=re.escape(message)):
        FlipPoset(QC, D5, graph=graph)


@pytest.mark.parametrize("i", range(5))
def test_a_minimal_matching_that_does_not_read_back_to_zero_is_refused(monkeypatch, i):
    # the frozen read-back build, with the boundary side it reads tile i off
    # read in the other class
    graph = BaseGraph(QC)
    sides = reference.boundary_sides(graph)
    edge, is_wb = sides[i]
    broken = sides[:i] + ((edge, not is_wb),) + sides[i + 1 :]
    monkeypatch.setattr(reference, "boundary_sides", lambda _graph: broken)
    with pytest.raises(AssertionError, match="minimal matching disagrees with the closed form"):
        reference.flip_poset_by_read_back(graph, D5)


def test_order_closure_is_built_on_the_first_order_query():
    queries = {
        "_order": lambda poset: reference.leq(poset, (0, 0, 0, 0, 0), (1, 1, 2, 1, 1)),
        "covers": lambda poset: poset.covers,
    }
    for name, query in queries.items():
        poset = FlipPoset(QC, D5)
        poset.coefficients
        dimer_invariants(poset)
        assert name not in vars(poset)
        assert query(poset)
        assert name in vars(poset)


def test_rank5_rank_profile(poset_qc):
    ranks = {}
    for e in poset_qc.elements:
        ranks[sum(e)] = ranks.get(sum(e), 0) + 1
    assert ranks == {0: 1, 1: 2, 2: 3, 3: 3, 4: 1, 5: 2, 6: 1}


def test_rank5_excluded_brick_flip(poset_qc):
    assert (0, 0, 1, 0, 0) in poset_qc.excluded


def test_rank5_is_nondistributive_lattice_with_pentagon(poset_qc):
    ok, pair = poset_qc.is_lattice()
    assert ok and pair is None
    assert not reference.is_distributive(poset_qc)
    w = poset_qc.n5_witness()
    assert w is not None
    # the frozen pentagon is a valid witness; the search may find it or an
    # equally valid one, so check the frozen one explicitly
    u, v, x = N5_WITNESS_QC["u"], N5_WITNESS_QC["v"], N5_WITNESS_QC["w"]
    assert reference.leq(poset_qc, u, v)
    assert poset_qc.meet(u, x) == poset_qc.meet(v, x) == N5_WITNESS_QC["meet"]
    assert poset_qc.join(u, x) == poset_qc.join(v, x) == N5_WITNESS_QC["join"]
    assert poset_qc.m3_witness() is None


def test_rank5_supports_match_conditions(poset_qc):
    assert poset_qc.elements == acceptable_evectors(QC, D5)


# ---- rank-6 instance ------------------------------------------------------------------


def test_rank6_poset_matches_conditions(poset_qa):
    assert poset_qa.elements == acceptable_evectors(QA, D6)
    assert POLY_EXCLUDED_QA in poset_qa.excluded


def test_rank6_f_from_coefficients(poset_qa):
    coeffs = poset_qa.coefficients
    f = tran_f_polynomial(QA, D6)
    assert coeffs == f.terms


# ---- order mechanics ---------------------------------------------------------------------


def test_leq_is_coordinatewise_on_chain(poset_qc):
    top = (1, 1, 2, 1, 1)
    for e in poset_qc.elements:
        assert reference.leq(poset_qc, (0,) * 5, e)
        assert reference.leq(poset_qc, e, top)


def test_order_is_coordinatewise_comparison(poset_qc, poset_qa):
    # [DERIVED] the flip order restricted to supported vectors is exactly
    # coordinatewise comparison of exponent vectors
    for poset in (poset_qc, poset_qa):
        for u in poset.elements:
            for v in poset.elements:
                assert reference.leq(poset, u, v) == all(a <= b for a, b in zip(u, v))


def test_meet_join_against_coordinatewise_bounds(poset_qc, poset_qa):
    # [DERIVED] meet/join coincide with coordinatewise min/max exactly when those
    # vectors are supported; otherwise the true bound lies strictly beyond them
    # (the excluded brick vector forces this on both frozen posets)
    for poset in (poset_qc, poset_qa):
        members = set(poset.elements)
        for u, v in itertools.combinations(poset.elements, 2):
            cmin = tuple(map(min, zip(u, v)))
            cmax = tuple(map(max, zip(u, v)))
            m, j = poset.meet(u, v), poset.join(u, v)
            assert all(a <= b for a, b in zip(m, cmin))
            assert all(a >= b for a, b in zip(j, cmax))
            if cmin in members:
                assert m == cmin
            if cmax in members:
                assert j == cmax
    # the non-lattice-friendly pair from the pentagon witness drops past its bound
    assert poset_qc.meet((1, 0, 1, 0, 1), (1, 1, 1, 0, 0)) == (1, 0, 0, 0, 0)


def test_order_antisymmetry_and_transitivity(poset_qc):
    els = poset_qc.elements
    for u in els:
        for v in els:
            if reference.leq(poset_qc, u, v) and reference.leq(poset_qc, v, u):
                assert u == v
    for u, v, w in itertools.permutations(els[:6], 3):
        if reference.leq(poset_qc, u, v) and reference.leq(poset_qc, v, w):
            assert reference.leq(poset_qc, u, w)


# ---- distributivity for multiplicity-free roots ----------------------------------------------


def test_boolean_roots_give_distributive_lattices():
    # [DERIVED] no doubled entry -> no brick cycle -> distributive
    for quiver in all_orientations(4)[:4]:
        for d in positive_roots(4):
            if max(d) == 2:
                continue
            poset = FlipPoset(quiver, d)
            ok, _ = poset.is_lattice()
            assert ok
            assert reference.is_distributive(poset)
            assert poset.n5_witness() is None
            assert poset.m3_witness() is None


def test_birkhoff_consistency_rank4_doubled_roots():
    # distributive <=> no pentagon and no diamond
    q = Quiver(4, [(0, 1), (1, 2), (1, 3)])
    for d in positive_roots(4):
        poset = FlipPoset(q, d)
        ok, _ = poset.is_lattice()
        assert ok
        dist = reference.is_distributive(poset)
        assert dist == (poset.n5_witness() is None and poset.m3_witness() is None)


def test_distributive_equals_the_frozen_triple_loop(sweep4, sweep5):
    # every lattice at ranks 4-5 and a seeded sample of rank-6 instances
    posets = [
        poset for sweep in (sweep4, sweep5) for entry in sweep.entries
        for poset in entry.posets.values()
    ]
    rng = random.Random(1326)
    rank6 = [(q, d) for q in all_orientations(6) for d in positive_roots(6)]
    posets += [FlipPoset(q, d) for q, d in rng.sample(rank6, 60)]
    verdicts = []
    for poset in posets:
        if poset.is_lattice()[0]:
            verdicts.append(poset.n5_witness() is None and poset.m3_witness() is None)
            assert verdicts[-1] == reference.is_distributive(poset), (poset.quiver, poset.d)
        else:
            with pytest.raises(ValueError, match="not a lattice"):
                poset.n5_witness()
            with pytest.raises(ValueError, match="not a lattice"):
                poset.m3_witness()
    assert (verdicts.count(False), verdicts.count(True)) == (63, 405)


def test_meet_and_join_equal_the_frozen_bit_walk(sweep4, sweep5):
    # every pair of every poset at ranks 4-5, lattice or not
    pairs = missing = 0
    for sweep in (sweep4, sweep5):
        for entry in sweep.entries:
            for poset in entry.posets.values():
                _, down, up = poset._order
                for u in poset.elements:
                    for v in poset.elements:
                        meet, join = poset.meet(u, v), poset.join(u, v)
                        assert meet == reference.bound_by_walk(poset, down, u, v)
                        assert join == reference.bound_by_walk(poset, up, u, v)
                        pairs += 1
                        missing += (meet is None) + (join is None)
    assert (pairs, missing) == (23446, 40)


def test_witnesses_equal_the_frozen_loops_by_leq(sweep4, sweep5, sweep6):
    # the searches over the order masks against the loops that called leq,
    # meet and join per candidate triple: every poset at ranks 4-6 and a
    # seeded sample of rank-7 posets; a poset that is no lattice is refused
    # by both
    posets = [
        poset for sweep in (sweep4, sweep5, sweep6) for entry in sweep.entries
        for poset in entry.posets.values()
    ]
    rng = random.Random(7)
    rank7 = [(q, d) for q in all_orientations(7) for d in positive_roots(7)]
    posets += [FlipPoset(q, d) for q, d in rng.sample(rank7, 300)]
    refused = {4: 0, 5: 0, 6: 0, 7: 0}
    for poset in posets:
        searches = [
            (poset.n5_witness, reference.n5_witness_by_leq),
            (poset.m3_witness, reference.m3_witness_by_leq),
        ]
        if poset.is_lattice()[0]:
            for search, frozen in searches:
                assert search() == frozen(poset), (poset.quiver, poset.d)
            continue
        refused[poset.graph.n] += 1
        for search, frozen in searches:
            with pytest.raises(ValueError, match="not a lattice"):
                search()
            with pytest.raises(ValueError, match="not a lattice"):
                frozen(poset)
    assert refused == {4: 0, 5: 6, 6: 44, 7: 16}


def test_hasse_dot_renders(poset_qc):
    dot = "\n".join(poset_qc.hasse_dot())
    assert dot.startswith("digraph hasse {")
    assert '"0,0,0,0,0" -> "1,0,0,0,0"' in dot


def test_rank4_elements_match_conditions_everywhere():
    # [DERIVED] for every rank-4 orientation and every positive root, the poset
    # support equals the e-vectors admitted by the arrow/criticality conditions,
    # and the weighted rank generating function reproduces the coefficients
    for quiver in all_orientations(4):
        for d in positive_roots(4):
            poset = FlipPoset(quiver, d)
            f = tran_f_polynomial(quiver, d)
            expect = {e: f.coefficient(e) for e in acceptable_evectors(quiver, d)}
            assert poset.coefficients == expect


def test_rank5_spot_elements_match_conditions():
    # [DERIVED] spot checks at rank 5 on doubled roots for two orientations
    for quiver in (QC, Quiver(5, [(0, 1), (1, 2), (2, 3), (4, 2)])):
        for d in positive_roots(5):
            if max(d) != 2:
                continue
            poset = FlipPoset(quiver, d)
            f = tran_f_polynomial(quiver, d)
            expect = {e: f.coefficient(e) for e in acceptable_evectors(quiver, d)}
            assert poset.coefficients == expect
