"""The support pass and the per-graph plans against what they replaced.

``support_summary`` and ``config_from_e`` are compared, through the dict view
``reference.as_dict``, with frozen copies of the component-by-component
helpers, the dict-keyed and the incidence support passes and the
class-by-class closed form (``reference.py``): on hand-made supports of a
base graph, on random orientations at ranks 4-9, with e drawn from the box
(realizable vectors, monochromatic or excluded, and arbitrary ones), and on
every configuration the flip BFS reaches at ranks 4-6.  Its traces skip
the colour of the first mark; with the marks in every rotation of their
colour order, so that each colour is once the skipped one, it equals the
frozen trace from every mark (``reference.support_summary_every_mark``) and
the incidence pass on every configuration the BFS reaches at ranks 4-6, on
the hand-made supports and on draws at ranks 7-10.  The fact the pass
rests on, corner totals of at most 2 that every realizable configuration
shares with the minimal matching, is checked on every rank 4-6 instance and
on draws at ranks 7-10.  The flip
poset is compared with a frozen copy of its old breadth-first build on every
instance at ranks 4-6, and its Laurent terms with the frozen closed form's
weights.
"""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from dimercluster.base_graph import BaseGraph, edge_key
from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.flip_poset import FlipPoset
from dimercluster.mixed_dimer import (
    config_from_e,
    minimal_matching,
    support_summary,
    x_exponents,
)
from dimercluster.mutation_oracle import expansion_from_f_and_g
from dimercluster.quiver_core import Quiver, all_orientations, dynkin_edges, positive_roots
from frozen import D5, QC


@st.composite
def instances(draw, low=4, high=9):
    """(graph, d, realizable e, any e in the box) at ranks low-high.

    The root and both vectors come from a drawn seed, so that they spread
    over the whole box rather than gather at its low corner; half the roots
    have a doubled entry.  The realizable
    e is drawn vertex by vertex along the diagram, each e_v from the interval
    its arrow to the one earlier neighbour allows: every interior
    multiplicity ``max(d_t - d_h, 0) + e_h - e_t`` is then >= 0.
    """
    n = draw(st.integers(low, high))
    arrows = [(b, a) if draw(st.booleans()) else (a, b) for a, b in dynkin_edges(n)]
    quiver = Quiver(n, arrows)
    rng = random.Random(draw(st.integers(0, 2**32)))
    roots = positive_roots(n)
    if draw(st.booleans()):  # roots with a doubled entry: green corners, cycles
        roots = [r for r in roots if 2 in r]
    d = rng.choice(roots)
    e = [rng.randint(0, d[0])]
    for v in range(1, n):
        u = n - 3 if v == n - 1 else v - 1
        if reference.arrow_sign(quiver, u, v) == 1:
            lo, hi = e[u] - max(d[u] - d[v], 0), d[v]
        else:
            lo, hi = 0, e[u] + max(d[v] - d[u], 0)
        e.append(rng.randint(max(lo, 0), min(hi, d[v])))
    free = tuple(rng.randint(0, x) for x in d)
    return BaseGraph(quiver), d, tuple(e), free


def support_graph(edges):
    """The corners and per-corner incidence of a graph with these edges, in
    the form ``support_summary`` reads them."""
    corners = sorted({v for edge in edges for v in edge})
    index = {v: c for c, v in enumerate(corners)}
    incidence = [[] for _ in corners]
    for k, (p, q) in enumerate(edges):
        incidence[index[p]].append((k, index[q]))
        incidence[index[q]].append((k, index[p]))
    return SimpleNamespace(corners=corners, incidence=tuple(map(tuple, incidence)))


def square(m01, m12, m23, m30, at=0):
    """A 4-cycle on the corners of the unit square at (at, 0)."""
    a, b, c, d = (at, 0), (at, 1), (at + 1, 1), (at + 1, 0)
    return {(a, b): m01, (b, c): m12, (d, c): m23, (a, d): m30}


@pytest.mark.parametrize(
    "config, labels, expected",
    [
        (square(1, 1, 1, 1), {}, (True, 1)),
        (square(2, 1, 2, 1), {}, (True, 1)),
        (square(2, 2, 2, 2), {}, (True, 0)),  # every edge doubled
        ({**square(1, 1, 1, 1), ((0, 0), (0, 2)): 0}, {}, (True, 1)),  # a zero entry
        ({**square(1, 1, 1, 1), ((1, 1), (1, 2)): 1}, {}, (True, 0)),  # a tail
        ({((0, 0), (1, 1)): 1, ((1, 1), (2, 0)): 1, ((0, 0), (2, 0)): 1}, {}, (True, 0)),
        ({**square(1, 1, 1, 1), **square(1, 1, 1, 1, at=5)}, {}, (True, 2)),
        (square(1, 1, 1, 1), {(0, 0): "red", (1, 1): "red"}, (True, 1)),
        (square(1, 1, 1, 1), {(0, 0): "red", (1, 1): "blue"}, (False, 1)),
        (
            {**square(1, 1, 1, 1), **square(1, 1, 1, 1, at=5)},
            {(0, 0): "red", (5, 0): "blue", (9, 9): "green"},
            (True, 2),
        ),
    ],
    ids=["ring", "mixed", "doubled", "zero", "tail", "triangle", "two", "one-color",
         "two-colors", "apart"],
)
def test_support_pass_on_small_supports(config, labels, expected):
    # no base graph: the frozen incidence pass, which reads any graph
    graph = support_graph(list(config))
    multiplicities = tuple(config.values())
    colors = [labels.get(v) for v in graph.corners]
    assert reference.support_summary_by_incidence(graph, multiplicities, colors) == expected
    assert reference.support_summary_by_dict(config, labels) == expected
    unmarked = [None] * len(graph.corners)
    assert reference.support_summary_by_incidence(graph, multiplicities, unmarked)[1] == expected[1]
    assert reference.count_cycles(config) == expected[1]


def base_graph_support(graph, multiplicities):
    """The configuration of ``graph`` with these multiplicities, keyed by
    the corners of each edge, and 0 on every other edge."""
    keyed = {edge_key(p, q): m for (p, q), m in multiplicities.items()}
    assert set(keyed) <= set(graph.edges)
    return tuple(keyed.get(edge, 0) for edge in graph.edges)


def ring(graph, tiles):
    """1 on every side of exactly one of the tiles: the boundary of their
    union."""
    sides = [edge for i in tiles for edge in graph.tiles[i].edges]
    return {edge: 1 for edge in sides if sides.count(edge) == 1}


def path(*corners):
    return {(p, q): 1 for p, q in zip(corners, corners[1:])}


# the rank-5 graph of QC: tiles 0 and 1 are squares at (0, 0) and (1, 0),
# the brick 2 stands on (1, 1)-(1, 2), tile 3 is north of it and tile 4 east;
# for D5 the red corners are (3, 2), (3, 3), the blue ones (1, 4), (2, 4) and
# the green ones (1, 0), (0, 1).  Each case: the tile sets whose boundaries
# are rings, the other support edges, and (monochromatic, cycles).
BASE_GRAPH_CASES = {
    "empty": ({}, (True, 0)),
    "one-tile": ([0], {}, (True, 1)),
    "two-tiles-one-face": ([0, 1], {}, (True, 1)),
    "two-faces": ([0], [4], {}, (True, 2)),
    "three-tiles-two-colors": ([2, 3, 4], {}, (False, 1)),
    "outer-boundary": ([0, 1, 2, 3, 4], {}, (False, 1)),
    "three-sides": (path((0, 0), (0, 1), (1, 1), (1, 0)), (True, 0)),
    "red-to-blue": (path((3, 3), (2, 3), (2, 4)), (False, 0)),
    "green-to-red": (path((1, 0), (2, 0), (2, 1), (2, 2), (3, 2)), (False, 0)),
    "doubled-red": ({((3, 2), (3, 3)): 2}, (True, 0)),
    "doubled-and-ring": ([4], {((0, 0), (0, 1)): 2}, (True, 1)),
}


@pytest.mark.parametrize("name", list(BASE_GRAPH_CASES))
def test_support_pass_on_hand_made_base_graph_supports(name):
    # supports on a base graph whose corner totals are at most 2, as in
    # every configuration the flip poset reaches
    graph = BaseGraph(QC)
    *rings, edges, expected = BASE_GRAPH_CASES[name]
    support = dict(edges)
    for tiles in rings:
        support.update(ring(graph, tiles))
    config = base_graph_support(graph, support)
    assert max(corner_totals(graph, config)) <= 2
    marks = reference.corner_marks(graph, D5)
    rotations = colour_rotations(marks)
    assert len(rotations) == 3  # red, blue and green: each is skipped once
    for rotated in rotations:
        assert support_summary(graph, config, rotated) == expected
    assert reference.support_summary_every_mark(graph, config, marks) == expected
    colors = reference.corner_colors(graph, D5)
    assert reference.support_summary_by_incidence(graph, config, colors) == expected
    assert support_summary(graph, config, {})[1] == expected[1]


def colour_rotations(marks):
    """marks (corner -> colour) once per rotation of its colour order, so
    that each colour comes first, and is the one ``support_summary`` does
    not trace from, in one of them."""
    colours = list(dict.fromkeys(marks.values()))
    orders = [colours[r:] + colours[:r] for r in range(len(colours))] or [[]]
    return [
        {c: colour for colour in order for c, v in marks.items() if v == colour}
        for order in orders
    ]


def one_colour_trace_agrees(graph, d, config):
    """``support_summary`` with the marks of d in every colour order equals
    the frozen every-mark trace and the incidence pass; returns the
    summary."""
    marks = reference.corner_marks(graph, d)
    expected = reference.support_summary_every_mark(graph, config, marks)
    colors = reference.corner_colors(graph, d)
    assert reference.support_summary_by_incidence(graph, config, colors) == expected
    for rotated in colour_rotations(marks):
        assert support_summary(graph, config, rotated) == expected
    return expected


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_one_colour_trace_on_every_reached_configuration(request, rank):
    # the admitted configurations and the excluded ones, which the BFS meets
    # and refuses: an excluded one joins two colours, which one trace finds
    sweep = request.getfixturevalue("sweep%d" % rank)
    reached = excluded = 0
    for entry in sweep.entries:
        graph = entry.graph
        for d, poset in entry.posets.items():
            for e in itertools.chain(poset.coefficients, poset.excluded):
                config = config_from_e(graph, d, e)
                monochromatic, _ = one_colour_trace_agrees(graph, d, config)
                assert monochromatic == (e not in poset.excluded)
                reached += 1
                excluded += not monochromatic
    assert (reached, excluded) == {4: (409, 25), 5: (2119, 193), 6: (9981, 1053)}[rank]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(instances(7, 10))
def test_one_colour_trace_at_ranks_7_to_10(instance):
    graph, d, e, free = instance
    one_colour_trace_agrees(graph, d, config_from_e(graph, d, e))
    try:
        config = config_from_e(graph, d, free)
    except ValueError:
        return
    one_colour_trace_agrees(graph, d, config)


def corner_totals(graph, config):
    return [sum(config[k] for k, _ in ends) for ends in graph.incidence]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_every_realizable_configuration_keeps_the_minimal_matchings_corner_totals(n):
    # the fact the support pass rests on: totals of at most 2 at every corner;
    # the realizable vectors are those that pass the box and every arrow
    for quiver in all_orientations(n):
        graph = BaseGraph(quiver)
        for d in positive_roots(n):
            totals = corner_totals(graph, minimal_matching(graph, d))
            assert max(totals) <= 2
            realizable = 0
            for e in itertools.product(*(range(x + 1) for x in d)):
                try:
                    config = config_from_e(graph, d, e)
                except ValueError:
                    continue
                assert corner_totals(graph, config) == totals
                realizable += 1
            assert realizable == reference.arrow_valid_count(quiver, d)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(instances(7, 10))
def test_realizable_corner_totals_at_ranks_7_to_10(instance):
    graph, d, e, _ = instance
    totals = corner_totals(graph, minimal_matching(graph, d))
    assert max(totals) <= 2
    assert corner_totals(graph, config_from_e(graph, d, e)) == totals


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(instances())
def test_support_pass_matches_the_component_helpers(instance):
    graph, d, e, free = instance
    config = config_from_e(graph, d, e)
    view = reference.as_dict(graph, config)
    assert view == reference.config_from_e_by_classes(graph, d, e)
    expected = (reference.is_monochromatic(graph, d, view), reference.count_cycles(view))
    assert support_summary(graph, config, reference.corner_marks(graph, d)) == expected
    colors = reference.corner_colors(graph, d)
    assert reference.support_summary_by_incidence(graph, config, colors) == expected
    try:
        want = reference.config_from_e_by_classes(graph, d, free)
    except ValueError:
        with pytest.raises(ValueError):
            config_from_e(graph, d, free)
    else:
        assert reference.as_dict(graph, config_from_e(graph, d, free)) == want


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_support_pass_equals_the_dict_pass_on_every_reached_configuration(request, rank):
    # every configuration the flip BFS reaches: the admitted ones and the
    # excluded ones, which it meets and refuses
    sweep = request.getfixturevalue("sweep%d" % rank)
    reached = 0
    for entry in sweep.entries:
        graph = entry.graph
        for d, poset in entry.posets.items():
            labels, marks = graph.node_labels(d), reference.corner_marks(graph, d)
            colors = reference.corner_colors(graph, d)
            for e in list(poset.elements) + sorted(poset.excluded):
                config = config_from_e(graph, d, e)
                view = reference.as_dict(graph, config)
                assert view == reference.config_from_e_by_classes(graph, d, e)
                summary = support_summary(graph, config, marks)
                assert summary == reference.support_summary_by_dict(view, labels)
                assert summary == reference.support_summary_by_incidence(graph, config, colors)
                assert summary[0] == (e not in poset.excluded)
                reached += 1
    assert reached == {4: 384 + 25, 5: 1926 + 193, 6: 8928 + 1053}[rank]


def frozen_tuple(graph, d, e):
    """The frozen closed form of e, as the tuple indexed like the edges."""
    view = reference.config_from_e_by_classes(graph, d, e)
    return tuple(view.get(edge, 0) for edge in graph.edges)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_flip_poset_matches_the_old_build(n):
    for quiver in all_orientations(n):
        graph = BaseGraph(quiver)
        for d in positive_roots(n):
            poset = FlipPoset(quiver, d, graph=graph)
            elements, excluded, covers, coefficients = reference.flip_poset_by_classes(graph, d)
            assert poset.elements == elements
            assert poset.excluded == excluded
            assert poset.covers == covers
            assert poset.coefficients == coefficients
            # the frozen termwise check: each Laurent term is its element's
            # 2^cycles * x^(wt - d) * y^e, weighed on the frozen closed form
            f, g = dimer_invariants(poset)
            assert expansion_from_f_and_g(quiver, f, g).terms == {
                tuple(w - x for w, x in zip(x_exponents(graph, frozen_tuple(graph, d, e)), d))
                + e: c
                for e, c in coefficients.items()
            }
