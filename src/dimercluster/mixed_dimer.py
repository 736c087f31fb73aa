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
wb-side by one, sending the configuration for e to the one for ``e + unit_i``.
``support_summary`` reads in one pass over the support, walking the graph's
per-corner incidence, both whether a configuration keeps differently-marked
corners apart and how many of its support components are simple cycles (its
coefficient is 2^cycles).
``x_exponents`` is a configuration's labelled weight.  The closed form and
the weight are both affine in e, with per-graph columns, which the base
graph checks once, at construction; the flip poset reads no configuration
back to its e and weighs only the minimal matching, for g.
"""

from __future__ import annotations

from dimercluster.base_graph import BW


# ---- closed form -------------------------------------------------------------


def config_from_e(graph, d, e):
    """Configuration for an exponent vector, from the multiplicity formulas.

    Every edge is read as the side an arrow ``tail -> head`` shares
    (``graph.closed_form_plan``); a boundary side shares it with the outer
    face, index n, where d and e are 0, so both boundary formulas are the
    interior one.
    """
    dd = tuple(d) + (0,)
    ee = tuple(e) + (0,)
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
    """Sum over k of the bw-sides of the region {i : d_i >= k}."""
    config = [0] * len(graph.edges)
    for k in (1, 2):
        region = {i for i in range(graph.n) if d[i] >= k}
        for i in region:
            for edge in graph.tiles[i].edges:
                t, h = graph.closed_form_plan[graph.edge_index[edge]]
                if (h if t == i else t) in region:
                    continue  # interior to the region (the outer face n never is)
                if graph.edge_class(edge, i) == BW:
                    config[graph.edge_index[edge]] += 1
    return tuple(config)


# ---- flips ---------------------------------------------------------------------


def flip(graph, config, tile_index):
    """bw-sides of the tile drop by one, wb-sides rise by one."""
    out = list(config)
    for k, delta in graph.flip_deltas[tile_index]:
        out[k] += delta
    return tuple(out)


def is_flippable(graph, d, config, tile_index):
    if d[tile_index] < 1:
        return False
    for k in graph.bw_sides[tile_index]:
        if config[k] < 1:
            return False
    return True


# ---- support structure -----------------------------------------------------------


def support_summary(graph, config, marks):
    """(monochromatic, cycles) of a configuration, from one pass over its
    support (the edges of nonzero multiplicity).

    marks[c] is the color of corner c (``graph.corners``), None when it is
    unmarked.  The configuration is monochromatic when no support component
    holds two differently-marked corners.  cycles counts the components
    that are simple cycles: every vertex meets exactly two support edges (so
    the edge and vertex counts agree), there are at least four, and not
    every edge is doubled.  A corner on no support edge is a component of
    its own that is neither.
    """
    incidence = graph.incidence
    monochromatic = True
    cycles = 0
    seen = [False] * len(incidence)
    for start in range(len(incidence)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        size = 0
        ring = True  # every vertex so far meets two support edges
        odd = False  # an odd-multiplicity edge so far
        color = None
        while stack:
            v = stack.pop()
            size += 1
            degree = 0
            for k, w in incidence[v]:
                m = config[k]
                if m:
                    degree += 1
                    if m % 2:
                        odd = True
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            if degree != 2:
                ring = False
            c = marks[v]
            if c is not None:
                if color is None:
                    color = c
                elif c != color:
                    monochromatic = False
        if ring and odd and size >= 4:
            cycles += 1
    return monochromatic, cycles


# ---- weights -----------------------------------------------------------------------


def x_exponents(graph, config):
    """Exponent vector of the product of labeled edge weights."""
    out = [0] * graph.n
    for k, label in graph.weighted_edges:
        out[label] += config[k]
    return tuple(out)
