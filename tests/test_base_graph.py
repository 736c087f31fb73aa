"""Unit tests for base-graph geometry, weights, and marked nodes.

The three frozen instances were laid out fully by hand: tile positions,
2-coloring, side classes, weight labels, and marked corners.  [DERIVED]
unless noted.
"""

import random
import re

import pytest

from dimercluster.base_graph import BW, WB, BaseGraph, Tile, edge_key
from dimercluster.quiver_core import Quiver, all_orientations, dynkin_edges, positive_roots

import reference
from frozen import D5, D6, QA, QB, QC
from reference import FrozenTables


def E(p, q):
    return edge_key(tuple(p), tuple(q))


@pytest.fixture(scope="module")
def ga():
    return BaseGraph(QA)


@pytest.fixture(scope="module")
def gc():
    return BaseGraph(QC)


# ---- frozen rank-5 geometry ---------------------------------------------------


def test_node_labels_returns_a_fresh_dict():
    graph = BaseGraph(QC)
    labels = graph.node_labels(D5)
    expected = dict(labels)
    labels[next(iter(labels))] = "purple"
    labels[(99, 99)] = "green"
    assert graph.node_labels(D5) == expected


def test_rank5_tile_layout(gc):
    kinds = [t.kind for t in gc.tiles]
    assert kinds == ["square", "square", "hexagon", "square", "square"]
    cells = [list(t.cells) for t in gc.tiles]
    assert cells[0] == [(0, 0)]
    assert cells[1] == [(1, 0)]
    assert cells[2] == [(1, 1), (1, 2)]  # vertical brick
    assert cells[3] == [(1, 3)]  # north of the brick
    assert cells[4] == [(2, 2)]  # east-high of the brick
    assert gc.sigma == 1


def test_rank5_weights(gc):
    expected = {
        E((0, 0), (1, 0)): 1,  # south of tile 0
        E((2, 0), (1, 0)): 0,  # south of tile 1
        E((2, 1), (2, 0)): 2,  # east of tile 1
        E((1, 1), (1, 2)): 1,  # brick west-low
        E((1, 2), (1, 3)): 3,  # brick west-high
        E((2, 2), (2, 1)): 4,  # brick east-low
        E((1, 3), (1, 4)): 2,  # west of tile 3
        E((2, 3), (3, 3)): 2,  # north of tile 4
    }
    assert {gc.edges[k]: label for k, label in gc.weighted_edges} == expected


def test_rank5_marked_nodes(gc):
    assert gc.red_nodes == {(3, 2), (3, 3)}
    assert gc.blue_nodes == {(1, 4), (2, 4)}
    assert gc.green_nodes(D5) == {(1, 0), (0, 1)}  # zig-zag case
    assert gc.green_nodes((0, 1, 1, 0, 1)) == frozenset()


# ---- frozen rank-6 geometry -----------------------------------------------------


def test_rank6_tile_layout(ga):
    cells = [list(t.cells) for t in ga.tiles]
    assert cells[0] == [(0, 0)]
    assert cells[1] == [(1, 0)]
    assert cells[2] == [(1, 1)]
    assert cells[3] == [(2, 1), (3, 1)]  # horizontal brick
    assert cells[4] == [(2, 2)]  # upper-left of the brick
    assert cells[5] == [(3, 0)]  # lower-right of the brick
    assert ga.sigma == 1
    assert ga.tiles[3].kind == "hexagon"


def test_rank6_weights(ga):
    expected = {
        E((0, 0), (1, 0)): 1,  # south of tile 0
        E((2, 0), (1, 0)): 0,  # south of tile 1
        E((2, 1), (2, 0)): 2,  # east of tile 1
        E((1, 1), (1, 2)): 1,  # west of tile 2
        E((1, 2), (2, 2)): 3,  # north of tile 2
        E((4, 2), (4, 1)): 2,  # brick right side
        E((3, 2), (4, 2)): 4,  # brick upper-right side
        E((3, 1), (2, 1)): 5,  # brick lower-left side
        E((2, 2), (2, 3)): 3,  # west of tile 4
        E((4, 1), (4, 0)): 3,  # east of tile 5
    }
    assert {ga.edges[k]: label for k, label in ga.weighted_edges} == expected


def test_rank6_marked_nodes(ga):
    assert ga.red_nodes == {(3, 0), (4, 0)}
    assert ga.blue_nodes == {(2, 3), (3, 3)}
    assert ga.green_nodes(D6) == {(1, 0), (0, 1)}


def test_rank6_branch_heavy_variant():
    g = BaseGraph(QB)
    # first arrow 0 <- 1 flips the coloring relative to the diagram start
    assert g.sigma == 1
    # same staircase length, but the fork tiles land on different brick sides
    assert [t.kind for t in g.tiles] == ["square"] * 3 + ["hexagon", "square", "square"]


# ---- structural invariants across all orientations -------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_structure_all_orientations(n):
    for q in all_orientations(n):
        g = BaseGraph(q)  # constructor runs the class/adjacency validations
        assert len(g.corners) == 2 * n + 4
        # every tile alternates side classes around its boundary
        for tile in g.tiles:
            classes = [g.side_class(p, qq) for p, qq in tile.sides]
            assert all(
                classes[i] != classes[(i + 1) % len(classes)]
                for i in range(len(classes))
            )
        # every arrow contributed two weight labels, on distinct edges
        assert len({k for k, _ in g.weighted_edges}) == 2 * len(q.arrows)
        # weights sit on boundary edges only
        for k, _ in g.weighted_edges:
            assert n in g.closed_form_plan[k]
        # marked corners are disjoint and live on the graph
        labels = g.node_labels(tuple(2 if i == n - 3 else 1 for i in range(n)))
        assert set(labels) <= set(g.corners)


def boundary_side_orientations():
    """Every orientation at ranks 4-10, and 16 seeded ones at each of ranks
    11-14."""
    rng = random.Random(1411)
    for n in range(4, 11):
        yield from all_orientations(n)
    for n in range(11, 15):
        for _ in range(16):
            arrows = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in dynkin_edges(n)]
            yield Quiver(n, arrows)


def test_every_tile_has_a_boundary_side():
    count = 0
    for q in boundary_side_orientations():
        g = BaseGraph(q)
        sides = reference.boundary_sides(g)  # asserts that every tile has one
        assert len(sides) == q.n
        plan = dict(zip(g.edges, g.closed_form_plan))
        for tile, (k, is_wb) in zip(g.tiles, sides):
            edge = g.edges[k]
            assert edge in tile.edges and q.n in plan[edge]
            assert reference.edge_class(g, edge, tile.index) == (WB if is_wb else BW)
            # the closed form reads e_i off a wb-side and d_i - e_i off a bw-side
            assert plan[edge] == ((q.n, tile.index) if is_wb else (tile.index, q.n))
        count += 1
    assert count == sum(2 ** (n - 1) for n in range(4, 11)) + 4 * 16


def test_weights_and_coloring_match_the_frozen_forms_ranks_4_to_12():
    # the labels claimed in one pass over flip_deltas, in claim order, against
    # the record search, and the coloring bit against the frozen arrow sign
    for n in range(4, 13):
        for q in all_orientations(n):
            g = BaseGraph(q)
            assert g.weighted_edges == reference.assign_weights_by_records(g)
            assert g.sigma == (0 if reference.arrow_sign(q, 0, 1) == 1 else 1)


def test_layout_and_marks_match_the_frozen_candidates_ranks_4_to_12():
    # the tiles read off the staircase steps and the brick's sides, against
    # the per-direction corner lists and fork-cell tables; the marked corners
    # by one rule, against the case for a doubled coordinate at 1
    count = 0
    for n in range(4, 13):
        roots = positive_roots(n)
        for q in all_orientations(n):
            g = BaseGraph(q)
            tiles, dirs = reference.build_tiles_by_candidates(g)
            assert [(t.index, t.kind, t.cells, t.corners) for t in g.tiles] == [
                (t.index, t.kind, t.cells, t.corners) for t in tiles
            ]
            assert g._directions[1:] == dirs[1:]
            brick = set(tiles[n - 3].corners)
            red, blue = (
                frozenset(v for v in tiles[t].corners if v not in brick) for t in (n - 1, n - 2)
            )
            assert (g.red_nodes, g.blue_nodes) == (red, blue)
            forks = dict.fromkeys(red, "red") | dict.fromkeys(blue, "blue")
            for d in roots:
                green = reference.green_nodes_by_cases(tiles, dirs, d)
                assert g.green_nodes(d) == green
                assert g.node_labels(d) == forks | dict.fromkeys(green, "green")
            count += 1
    assert count == 4088


def test_tables_match_the_frozen_builder():
    # every table the package reads, against the builder that kept the
    # corner set, each edge's tiles and a class per (edge, tile); the
    # weights in order, and the bw-sides and coordinate-keyed weights it also
    # kept, read off the package's edge-indexed tables
    names = (
        "edges", "edge_index", "corners", "incidence", "flip_deltas",
        "closed_form_plan", "weighted_edges",
    )
    for q in boundary_side_orientations():
        g = BaseGraph(q)
        frozen = FrozenTables(g)
        for name in names:
            assert getattr(g, name) == getattr(frozen, name), name
        assert reference.boundary_sides(g) == frozen.boundary_sides
        assert g.corners == sorted(frozen.vertices)
        assert frozen.bw_sides == tuple(
            tuple(k for k, m in deltas if m < 0) for deltas in g.flip_deltas
        )
        assert frozen.edge_weights == {g.edges[k]: label for k, label in g.weighted_edges}
        for e in g.edges:
            plan = g.closed_form_plan[g.edge_index[e]]
            assert sorted(t for t in plan if t < q.n) == sorted(frozen.edge_tiles[e])
            for i in frozen.edge_tiles[e]:
                # tile i fills the bw slot of the plan exactly for its bw-sides
                assert plan[frozen.edge_class(e, i) == WB] == i


def test_construction_refuses_a_flip_table_off_the_closed_form(monkeypatch):
    # the flip and weight columns are checked last, on the finished tables:
    # with a bw-side dropped from tile 0's flip, the flip would need too few
    # sides present
    assign_weights = BaseGraph._assign_weights

    def corrupted(graph):
        assign_weights(graph)
        deltas = list(graph.flip_deltas[0])
        deltas.remove(next(x for x in deltas if x[1] < 0))
        graph.flip_deltas = (tuple(deltas),) + graph.flip_deltas[1:]

    monkeypatch.setattr(BaseGraph, "_assign_weights", corrupted)
    with pytest.raises(AssertionError, match="the flip at tile 0 disagrees with the closed form"):
        BaseGraph(QC)


def test_the_tiles_and_the_outer_face_are_every_face_ranks_4_to_10():
    # Euler: 2n + 4 corners and 3n + 3 edges leave n + 1 faces, the n tiles
    # and the outer face, which the support pass counts cycles over; the
    # diagram's tree joins the tiles, each child before its parent
    count = 0
    for n in range(4, 11):
        for q in all_orientations(n):
            g = BaseGraph(q)
            assert (len(g.corners), len(g.edges)) == (2 * n + 4, 3 * n + 3)
            assert [i for i, *_ in g.tile_tree] == list(range(n - 1, -1, -1))
            for i, boundary, parent, k in g.tile_tree:
                assert sorted(boundary) == sorted(
                    k for k, _ in g.flip_deltas[i] if n in g.closed_form_plan[k]
                )
                if parent is None:
                    assert (i, k) == (0, None)
                else:
                    assert sorted(g.closed_form_plan[k]) == sorted((i, parent))
            count += 1
    assert count == 1016


def test_construction_refuses_an_edge_past_the_euler_count(monkeypatch):
    index_edges = BaseGraph._index_edges

    def with_a_diagonal(graph):
        index_edges(graph)
        graph.edges = graph.edges + [((0, 0), (1, 1))]

    monkeypatch.setattr(BaseGraph, "_index_edges", with_a_diagonal)
    with pytest.raises(AssertionError, match="expected 18 edges, built 19"):
        BaseGraph(QC)


def test_construction_refuses_a_flip_that_changes_a_corner_total(monkeypatch):
    # a boundary wb-side of tile 0 recorded as a bw-side: the tables stay
    # consistent with the record, but the flip at tile 0 no longer keeps the
    # totals at the side's two corners
    index_edges = BaseGraph._index_edges

    def with_a_swapped_side(graph):
        index_edges(graph)
        plan = list(graph.closed_form_plan)
        k = plan.index((graph.n, 0))
        plan[k] = (0, graph.n)
        graph.closed_form_plan = tuple(plan)

    monkeypatch.setattr(BaseGraph, "_index_edges", with_a_swapped_side)
    message = "the flip at tile 0 changes the total at corner (0, 0) by -2"
    with pytest.raises(AssertionError, match=re.escape(message)):
        BaseGraph(QC)


def test_construction_refuses_two_tiles_on_one_side_in_one_class(monkeypatch):
    # tile 1 laid over tile 0: their sides meet in the same classes
    build_tiles = BaseGraph._build_tiles

    def overlapping(graph):
        build_tiles(graph)
        cell = graph.tiles[0].cells[0]
        graph.tiles[1] = Tile(1, "square", [cell], graph.tiles[0].corners)

    monkeypatch.setattr(BaseGraph, "_build_tiles", overlapping)
    message = "edge ((0, 0), (0, 1)) is a side of tiles 0 and 1 in one class"
    with pytest.raises(AssertionError, match=re.escape(message)):
        BaseGraph(QC)


def test_construction_refuses_a_tile_without_a_free_side(monkeypatch):
    # tile 0's boundary sides recorded as no boundary side: its arrow from
    # tile 1 finds no free bw-side to label
    plan_tables = BaseGraph._plan

    def without_boundary(graph):
        plan_tables(graph)
        graph.closed_form_plan = tuple(
            (0, 0) if 0 in pair and graph.n in pair else pair for pair in graph.closed_form_plan
        )

    monkeypatch.setattr(BaseGraph, "_plan", without_boundary)
    with pytest.raises(AssertionError, match="no free bw-side on tile 0 for neighbor 1"):
        BaseGraph(QC)


def test_hexagon_class_counts():
    # the brick always offers exactly 3 bw and 3 wb sides
    for q in all_orientations(5):
        g = BaseGraph(q)
        hexa = g.tiles[2]
        classes = [g.side_class(p, qq) for p, qq in hexa.sides]
        assert classes.count(BW) == 3 and classes.count(WB) == 3


def test_describe_and_dot_render(gc):
    text = gc.describe()
    assert "hexagon" in text and "weight=x3" in text
    dot = gc.to_dot(D5)
    assert dot.startswith("graph basegraph {")
    assert "color=green" in dot and "color=red" in dot
