"""Planar weighted base graph attached to an orientation of the rank-n diagram.

Construction
------------
Each vertex ``i`` of the diagram becomes a *tile*: vertices ``0..n-4`` are unit
squares forming a monotone staircase (steps East/North), vertex ``n-3`` (the
branch node) becomes a 2x1 hexagonal brick on the cell the last step enters
and the next cell along that step, and the fork tips ``n-2``, ``n-1`` become
unit squares across clockwise brick sides 1-2 and 3-4, each across the side
of its class with respect to the brick, on the cell to that side's left.
Adjacent diagram vertices share exactly one graph edge; non-adjacent tiles
share nothing.

The staircase turns between consecutive tiles exactly when the two incident
diagram edges are oriented the same way along the path (both up-index or both
down-index); it runs straight when they oppose, and tile 0 counts as entered
straight, East.  A side read clockwise is "bw" when its first corner's parity
is ``sigma``, pinned by the orientation of the first diagram edge, and "wb"
otherwise.  Every tile's boundary then alternates between the two classes,
and the defining compatibility holds: the edge shared by an arrow ``i -> j``
is a bw-side of tile ``i`` and a wb-side of tile ``j``.

Per-edge record
---------------
Every edge is a side of one or two tiles, and a side of one tile in each
class at most.  ``closed_form_plan[k]`` is the pair (bw, wb) for
``edges[k]``: the tile that has it as a bw-side and the tile that has it as
a wb-side, the outer face ``n`` standing in for the missing tile of a
boundary edge.  The record is built in one pass over the tile sides (a
tile's sides alternate in class, so only its first side's class is read
off the coloring), and every other table (side classes, flips, weight
labels) is read from it.  The constructor checks the ``2n + 4`` corners,
and that the pairs without the outer face are exactly the arrows of the
quiver: one comparison that covers the tile adjacencies, one shared edge
per adjacent pair, and the class compatibility.  Last, once per graph, it
checks each tile's flip and weight columns (``_check_flips``), which every
poset trusts.

Weights
-------
Each arrow ``i -> j`` labels one boundary edge of tile ``i`` (a wb-side) with
the variable index ``j``, and one boundary edge of tile ``j`` (a bw-side)
with ``i``.  Each neighbor, in ascending order, claims the next boundary
side of its class (+1 in ``flip_deltas[i]``: wb, -1: bw) clockwise from the
side shared with the lowest-indexed one, into ``weighted_edges``; unlabeled
edges weigh 1.  Boundary sides of a tile in the same class always carry
equal multiplicity in any configuration, so the residual freedom in this
rule cannot affect weights of configurations.

Marked nodes
------------
Two corners of each fork tile are marked ("red" for ``n-1``, "blue" for
``n-2``), and for roots with a doubled entry two further corners are marked
"green" near the tile of the first doubled coordinate, placed by the
staircase steps ``_build_tiles`` keeps.  Configurations whose
support joins differently-marked corners are excluded from the flip lattice.
"""

from __future__ import annotations

import itertools

from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.mutation_oracle import expansion_from_f_and_g
from dimercluster.quiver_core import dynkin_edges

BW = "bw"
WB = "wb"

EAST = (1, 0)
NORTH = (0, 1)


def edge_key(p, q):
    return (p, q) if p <= q else (q, p)


class Tile:
    __slots__ = ("index", "kind", "cells", "corners", "sides", "edges")

    def __init__(self, index, kind, cells, corners):
        self.index = index
        self.kind = kind  # "square" | "hexagon"
        self.cells = tuple(cells)
        c = self.corners = tuple(corners)  # clockwise, interior on the right
        # directed sides (P, Q) in clockwise order, and their edge keys
        ends = c[1:] + c[:1]
        self.sides = tuple(zip(c, ends))
        self.edges = tuple(map(edge_key, c, ends))


def _square_corners(cell):
    a, b = cell
    return [(a, b), (a, b + 1), (a + 1, b + 1), (a + 1, b)]


def _hexagon_corners(cell, step):
    """The 2x1 brick on cell and cell + step, clockwise from its lower-left corner."""
    (a, b), (x, y) = cell, step
    return [
        (a, b), (a, b + 1), (a + x, b + 1 + y),
        (a + 1 + x, b + 1 + y), (a + 1 + x, b + y), (a + 1, b),
    ]


class BaseGraph:
    def __init__(self, quiver):
        self.quiver = quiver
        self.n = quiver.n
        # the first diagram edge pins the 2-coloring
        self.sigma = 0 if (0, 1) in quiver.arrows else 1
        self._build_tiles()
        self._index_edges()
        self._validate()
        self._plan()
        self._assign_weights()
        self._check_flips()
        self._mark_nodes()

    # ---- side classes -------------------------------------------------------

    def side_class(self, p, q):
        """Class of the directed side (p -> q) of the tile listing it CW."""
        return BW if (p[0] + p[1]) % 2 == self.sigma else WB

    # ---- construction ---------------------------------------------------------

    def _build_tiles(self):
        """The tiles, and the staircase's step into each tile i = 0..n-3
        (tile 0 counts as entered straight, the last enters the brick),
        kept for ``green_nodes``."""
        n = self.n
        arrows = self.quiver.arrows
        # the staircase turns into tile i when the diagram edges (i-2, i-1)
        # and (i-1, i) point the same way along the path, and runs straight
        # when they oppose
        dirs = [EAST, EAST]
        for i in range(2, n - 2):
            prev = dirs[-1]
            if ((i - 2, i - 1) in arrows) == ((i - 1, i) in arrows):
                prev = NORTH if prev == EAST else EAST
            dirs.append(prev)
        self._directions = dirs
        cells = [(0, 0)]
        for dx, dy in dirs[1:]:
            a, b = cells[-1]
            cells.append((a + dx, b + dy))
        # the branch tile: a 2x1 brick on the last cell and the next one along
        # the last step
        cell, step = cells.pop(), dirs[-1]
        tiles = [Tile(i, "square", [c], _square_corners(c)) for i, c in enumerate(cells)]
        brick = [cell, (cell[0] + step[0], cell[1] + step[1])]
        hexagon = Tile(n - 3, "hexagon", brick, _hexagon_corners(cell, step))
        tiles.append(hexagon)
        # each fork tile sits across the brick side of its class (arrow tail:
        # bw) among clockwise sides 1-2 (tile n-2) or 3-4 (tile n-1), on the
        # cell to that side's left
        for t, sides in ((n - 2, hexagon.sides[1:3]), (n - 1, hexagon.sides[3:5])):
            needed = BW if (n - 3, t) in arrows else WB
            side = next((side for side in sides if self.side_class(*side) == needed), None)
            if side is None:  # neither side is of the needed class
                raise AssertionError("no compatible brick side for fork tile %d" % t)
            (px, py), (qx, qy) = side
            cell = (min(px, qx) - (qy > py), min(py, qy) - (qx < px))
            tiles.append(Tile(t, "square", [cell], _square_corners(cell)))
        self.tiles = tiles

    def _index_edges(self):
        """The per-edge record: ``closed_form_plan[k]`` = (bw, wb) for
        ``edges[k]``, the tile that has it as a bw-side and the tile that has
        it as a wb-side, the outer face n standing in for a missing one.

        Every side is a unit step, so a tile's corners alternate in parity
        and its sides in class, starting from the class of its first side."""
        n = self.n
        bw, wb = {}, {}  # edge -> the tile that has it in that class
        for tile in self.tiles:
            i = tile.index
            classes = (bw, wb) if self.side_class(*tile.sides[0]) == BW else (wb, bw)
            for s, e in enumerate(tile.edges):
                other = classes[s & 1].setdefault(e, i)
                if other != i:  # a tile's sides are distinct edges
                    raise AssertionError(
                        "edge %r is a side of tiles %d and %d in one class" % (e, other, i)
                    )
        edges = self.edges = sorted(bw.keys() | wb.keys())
        self.edge_index = dict(zip(edges, range(len(edges))))
        outer = [n] * len(edges)
        self.closed_form_plan = tuple(zip(map(bw.get, edges, outer), map(wb.get, edges, outer)))
        self.corners = sorted(set(itertools.chain.from_iterable(edges)))

    def _validate(self):
        n = self.n
        if len(self.corners) != 2 * n + 4:
            raise AssertionError(
                "expected %d corners, built %d" % (2 * n + 4, len(self.corners))
            )
        # Euler's formula: a connected plane graph has E - V + 2 faces, so
        # 3n + 3 edges leave room for no face but the n tiles and the outer one
        if len(self.edges) != len(self.corners) + n - 1:
            raise AssertionError(
                "expected %d edges, built %d" % (len(self.corners) + n - 1, len(self.edges))
            )
        # one edge per arrow i -> j, a bw-side of tile i and a wb-side of tile j,
        # and no other edge shared: the tile adjacencies are the diagram's
        shared = sorted((t, h) for t, h in self.closed_form_plan if t < n and h < n)
        if shared != sorted(self.quiver.arrows):
            raise AssertionError(
                "shared edges %s do not match the arrows %s"
                % (shared, sorted(self.quiver.arrows))
            )

    def _plan(self):
        """Per-graph tables that configurations are read and built with, all
        read from the per-edge record ``closed_form_plan``.

        A configuration is a tuple of multiplicities indexed like ``edges``;
        every table below names an edge by its position there
        (``edge_index``) and a corner by its position in ``corners``.
        ``incidence[c]``: (edge, other corner) for every edge at corner c.
        ``flip_deltas[i]``: (edge, -1) for every bw-side and (edge, +1) for
        every wb-side of tile i, clockwise; a flip at i needs every -1 edge
        present.  ``tile_tree``: per tile, every child before its parent
        along the diagram's tree (rooted at tile 0), (tile, its boundary
        sides, its parent tile, the edge they share); the root's parent and
        edge are None.
        """
        n, index, plan = self.n, self.edge_index, self.closed_form_plan
        corner = dict(zip(self.corners, range(len(self.corners))))
        incidence = [[] for _ in self.corners]
        for k, (p, q) in enumerate(self.edges):
            p, q = corner[p], corner[q]
            incidence[p].append((k, q))
            incidence[q].append((k, p))
        self.incidence = tuple(map(tuple, incidence))
        parents = {v: u for u, v in dynkin_edges(n)}
        flips, tree = [], []
        for i, tile in enumerate(self.tiles):
            parent = parents.get(i)
            deltas, boundary, shared = [], [], None
            for k in map(index.__getitem__, tile.edges):
                t, h = plan[k]
                deltas.append((k, -1 if t == i else 1))
                if t == n or h == n:
                    boundary.append(k)
                elif t == parent or h == parent:
                    shared = k
            flips.append(tuple(deltas))
            tree.append((i, tuple(boundary), parent, shared))
        self.flip_deltas = tuple(flips)
        tree.reverse()  # a parent's index is below its children's
        self.tile_tree = tuple(tree)

    def _check_flips(self):
        """The per-graph identities that make a configuration and its x-weight
        affine in e, checked once at construction.  For every tile i:

        * the flip at i (``flip_deltas[i]``) adds column i of the closed form:
          -1 on each edge whose bw slot is tile i (``closed_form_plan``), +1
          where it is the wb slot, so the -1 entries, the sides a flip at i
          needs present, are exactly tile i's bw-sides;
        * that column sums to 0 at every corner, so no flip changes a
          corner's total multiplicity;
        * its change in labelled weight (``weighted_edges``) is column i of
          Ŷ, the x-exponents of ŷ_i.  ``expansion_from_f_and_g`` of
          u_0 + ... + u_{n-1} with g = 0 has one term per ŷ_i, its y-part
          the unit vector of i.

        AssertionError names the first tile that fails either.
        """
        n, plan = self.n, self.closed_form_plan
        # rows n collect the outer face's entries
        columns = [{} for _ in range(n + 1)]
        changes = [[0] * n for _ in range(n + 1)]
        for k, (t, h) in enumerate(plan):
            columns[t][k], columns[h][k] = -1, 1
        for k, label in self.weighted_edges:
            t, h = plan[k]
            changes[t][label] -= 1
            changes[h][label] += 1
        units = {(0,) * i + (1,) + (0,) * (n - 1 - i): 1 for i in range(n)}
        u = LaurentPolynomial._build(u_context(n), units)
        terms = expansion_from_f_and_g(self.quiver, u, (0,) * n).terms
        yhat = {x[n:].index(1): list(x[:n]) for x in terms}
        for i, deltas in enumerate(self.flip_deltas):
            column = columns[i]
            if sorted(deltas) != list(column.items()):
                raise AssertionError("the flip at tile %d disagrees with the closed form" % i)
            # sides s - 1 and s, clockwise, meet at the tile's corner s
            for s, corner in enumerate(self.tiles[i].corners):
                if deltas[s - 1][1] + deltas[s][1]:
                    raise AssertionError(
                        "the flip at tile %d changes the total at corner %r by %d"
                        % (i, corner, deltas[s - 1][1] + deltas[s][1])
                    )
            if changes[i] != yhat[i]:
                raise AssertionError(
                    "the flip at tile %d changes the x-weight by %r, not by yhat_%d's %r"
                    % (i, tuple(changes[i]), i, tuple(yhat[i]))
                )

    # ---- weights ---------------------------------------------------------------

    def _assign_weights(self):
        n, plan, arrows = self.n, self.closed_form_plan, self.quiver.arrows
        near = [[] for _ in range(n)]  # each tile's diagram neighbours, ascending
        for u, v in dynkin_edges(n):
            near[u].append(v)
            near[v].append(u)
        labels = {}  # edge -> label, in the order claimed
        for i, deltas in enumerate(self.flip_deltas):
            start = next(s for s, (k, _) in enumerate(deltas) if near[i][0] in plan[k])
            free = {1: [], -1: []}  # the boundary wb- and bw-sides, clockwise
            for k, delta in deltas[start:] + deltas[:start]:
                if n in plan[k]:
                    free[delta].append(k)
            for j in near[i]:
                # an arrow i -> j labels a wb-side, an arrow j -> i a bw-side
                delta = 1 if (i, j) in arrows else -1
                if not free[delta]:
                    raise AssertionError(
                        "no free %s-side on tile %d for neighbor %d"
                        % (WB if delta == 1 else BW, i, j)
                    )
                labels[free[delta].pop(0)] = j
        self.weighted_edges = tuple(labels.items())

    # ---- marked nodes ------------------------------------------------------------

    def _corners_off(self, i, j):
        """Tile i's corners that are not tile j's."""
        drop = set(self.tiles[j].corners)
        return frozenset(v for v in self.tiles[i].corners if v not in drop)

    def _mark_nodes(self):
        self.red_nodes = self._corners_off(self.n - 1, self.n - 3)
        self.blue_nodes = self._corners_off(self.n - 2, self.n - 3)

    def green_nodes(self, d):
        """Marked corners for the first doubled coordinate of d (empty if none)."""
        if 2 not in d:
            return frozenset()
        j = d.index(2)
        dirs = self._directions
        if dirs[j - 1] == dirs[j]:  # straight: the side facing away from tile j
            return self._corners_off(j - 1, j)
        # zig-zag: the end of the (j-2, j-1) shared edge that avoids tile j, plus
        # its diagonal opposite within tile j-2
        tiles = self.tiles
        shared = set(tiles[j - 2].corners) & set(tiles[j - 1].corners)
        away = shared - set(tiles[j].corners)
        if len(away) != 1:
            raise AssertionError("zig-zag at %d has no unique corner away from tile j" % j)
        (y,) = away
        (a, b) = tiles[j - 2].cells[0]
        z = (2 * a + 1 - y[0], 2 * b + 1 - y[1])
        return frozenset({y, z})

    def node_labels(self, d):
        """corner -> "red" | "blue" | "green" for the root d, built afresh
        on every call."""
        labels = {}
        for v in self.red_nodes:
            labels[v] = "red"
        for v in self.blue_nodes:
            labels[v] = "blue"
        for v in self.green_nodes(d):
            if v in labels:
                raise AssertionError("corner %r marked twice" % (v,))
            labels[v] = "green"
        return labels

    # ---- rendering -----------------------------------------------------------------

    def describe(self):
        lines = ["tiles:"]
        for tile in self.tiles:
            lines.append(
                "  %d %s cells=%s corners=%s"
                % (tile.index, tile.kind, list(tile.cells), list(tile.corners))
            )
        lines.append("edges (weight 1 unless noted):")
        weights = dict(self.weighted_edges)
        for k, (e, pair) in enumerate(zip(self.edges, self.closed_form_plan)):
            tiles = ",".join(str(t) for t in sorted(pair) if t < self.n)
            w = weights.get(k)
            note = " weight=x%d" % w if w is not None else ""
            lines.append("  %s -- %s  tiles=%s%s" % (e[0], e[1], tiles, note))
        lines.append(
            "marked: red=%s blue=%s" % (sorted(self.red_nodes), sorted(self.blue_nodes))
        )
        return "\n".join(lines)

    def to_dot(self, d=None):
        labels = self.node_labels(d) if d is not None else {}
        out = ["graph basegraph {"]
        for v in self.corners:
            color = labels.get(v)
            attrs = ' [color=%s, style=filled]' % color if color else ""
            out.append('  "%s,%s"%s;' % (v[0], v[1], attrs))
        weights = dict(self.weighted_edges)
        for k, e in enumerate(self.edges):
            w = weights.get(k)
            label = ' [label="x%d"]' % w if w is not None else ""
            out.append('  "%s,%s" -- "%s,%s"%s;' % (e[0][0], e[0][1], e[1][0], e[1][1], label))
        out.append("}")
        return "\n".join(out)
