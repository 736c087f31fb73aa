"""Mixed configurations on a base graph: multisets of edges with flips.

A configuration is a tuple of multiplicities indexed like ``graph.edges``,
zeros kept.  For a root d and an exponent vector e in the box
``0 <= e <= d``, the closed form gives one configuration:

* the edge shared by an arrow ``t -> h`` has multiplicity
  ``max(d_t - d_h, 0) + e_h - e_t``;
* a boundary bw-side of tile i has multiplicity ``d_i - e_i``;
* a boundary wb-side of tile i has multiplicity ``e_i``.

The base graph holds these formulas as one (tail, head) plan per edge, a
boundary side taking the outer face as its other tile, and every other
per-graph table in edge and corner indices (``BaseGraph._plan``).  e is
*realizable* exactly when all interior multiplicities are nonnegative (the
box handles the boundary).  The minimal matching is the e = 0
configuration; it is computed independently as a sum over the regions
``G_k = {i : d_i >= k}`` of their boundary bw-sides, and both routes are
checked against each other at runtime.

A *flip* at tile i lowers every bw-side of the tile by one and raises every
wb-side by one, sending the configuration for e to the one for ``e + unit_i``;
it keeps every corner's total multiplicity, which is at most 2 in the
minimal matching.  ``support_summary`` reads whether a configuration keeps
differently-marked corners apart and how many of its support components are
simple cycles (its coefficient is 2^cycles) in two short passes: it counts
the cycles as the bounded faces of the support, over the diagram's tree of
tiles (``BaseGraph.tile_tree``), and traces only the support paths that
start at a marked corner of any colour but the first mark's.
``x_exponents`` is a configuration's labelled weight.  The closed form and
the weight are both affine in e, with per-graph columns, which the base
graph checks once, at construction; the flip poset reads no configuration
back to its e and weighs only the minimal matching, for g.
"""

from __future__ import annotations


# ---- closed form -------------------------------------------------------------


def config_from_e(graph, d, e):
    """Configuration for an exponent vector, from the multiplicity formulas.

    Every edge is read as the side an arrow ``tail -> head`` shares
    (``graph.closed_form_plan``); a boundary side shares it with the outer
    face, index n, where d and e are 0, so both boundary formulas are the
    interior one.  ValueError unless d and e both have n entries.
    """
    dd = tuple(d) + (0,)
    ee = tuple(e) + (0,)
    if not len(dd) == len(ee) == graph.n + 1:
        raise ValueError(
            "d and e must have %d entries each, not %r and %r" % (graph.n, dd[:-1], ee[:-1])
        )
    config = tuple([
        dd[t] - dd[h] + ee[h] - ee[t] if dd[t] > dd[h] else ee[h] - ee[t]
        for t, h in graph.closed_form_plan
    ])
    if min(config) < 0:
        k, m = next((k, m) for k, m in enumerate(config) if m < 0)
        raise ValueError(
            "exponent vector %r is not realizable (edge %r would have "
            "multiplicity %d)" % (tuple(e), graph.edges[k], m)
        )
    return config


def minimal_matching(graph, d):
    """The e = 0 configuration, computed two independent ways.

    Both routes run and are compared on every call, which returns the
    closed-form tuple.
    """
    closed = config_from_e(graph, d, (0,) * graph.n)
    regional = _region_minimal_matching(graph, d)
    if closed != regional:
        raise AssertionError(
            "minimal-matching routes disagree: %r vs %r" % (closed, regional)
        )
    return closed


def _region_minimal_matching(graph, d):
    """Sum over level = 1, 2 of the bw-sides of the region {i : d_i >= level}."""
    config = [0] * len(graph.edges)
    plan = graph.closed_form_plan
    for level in (1, 2):
        region = {i for i in range(graph.n) if d[i] >= level}
        for i in region:
            for k, delta in graph.flip_deltas[i]:
                # a bw-side of tile i (a -1 entry), not shared with a tile of
                # the region (the outer face n never is one)
                if delta < 0 and plan[k][1] not in region:
                    config[k] += 1
    return tuple(config)


# ---- flips ---------------------------------------------------------------------


def flip(graph, config, tile_index):
    """bw-sides of the tile drop by one, wb-sides rise by one."""
    out = list(config)
    for k, delta in graph.flip_deltas[tile_index]:
        out[k] += delta
    return tuple(out)


# ---- support structure -----------------------------------------------------------


def support_summary(graph, config, marks):
    """(monochromatic, cycles) of a configuration: whether no component of
    its support (the edges of nonzero multiplicity) holds two
    differently-marked corners, and how many components are simple cycles.
    marks maps each marked corner (an index into ``graph.corners``) to its
    color.

    Every corner's total multiplicity is at most 2 (the flip poset checks
    the minimal matching's, and the base graph that flips keep them), so a
    component is a path, a doubled edge or a ring of at least four single
    edges (the graph is bipartite).

    * cycles: the tiles and the outer face are every face of the base graph
      (``BaseGraph._validate`` counts the edges), so the rings are the
      bounded faces of the support: sets of tiles joined across edges off
      the support, none with a boundary side off it.  ``tile_tree`` visits
      each tile before its parent; a tile is open when a boundary side is
      off the support or an open child joins it, and a tile whose edge to
      its parent is on the support (or the root) closes its set, a cycle
      unless open.
    * monochromatic: from each marked corner, each support path is followed
      along ``graph.incidence`` to the next marked corner, its end or back
      to the start; two differently-marked corners share a component
      exactly when one such trace joins them.  A component holding two
      colours holds two differently-marked corners with no marked corner
      between them on it, and at most one of the two has the colour of the
      first mark in ``marks``, so the traces start only at the marks of the
      other colours.
    """
    opened = [False] * graph.n
    cycles = 0
    for i, boundary, parent, k in graph.tile_tree:
        if not opened[i]:
            for b in boundary:
                if not config[b]:
                    break
            else:  # closed so far: every boundary side is on the support
                if k is None or config[k]:
                    cycles += 1
                continue
        if k is not None and not config[k]:
            opened[parent] = True
    incidence = graph.incidence
    skipped = next(iter(marks.values()), None)
    for start, color in marks.items():
        if color == skipped:
            continue
        for prev, v in incidence[start]:
            if not config[prev]:
                continue
            while v != start:
                mark = marks.get(v)
                if mark is not None:
                    if mark != color:
                        return False, cycles
                    break
                for k, w in incidence[v]:
                    if k != prev and config[k]:
                        prev, v = k, w
                        break
                else:
                    break  # the path ends at v
    return True, cycles


# ---- weights -----------------------------------------------------------------------


def x_exponents(graph, config):
    """Exponent vector of the product of labeled edge weights."""
    out = [0] * graph.n
    for k, label in graph.weighted_edges:
        out[label] += config[k]
    return tuple(out)
