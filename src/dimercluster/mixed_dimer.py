"""Mixed configurations on a base graph: multisets of edges with flips.

A configuration is a map ``edge -> multiplicity`` (zero entries dropped).
For a root d and an exponent vector e in the box ``0 <= e <= d``, the closed
form gives one configuration:

* the edge shared by an arrow ``t -> h`` has multiplicity
  ``max(d_t - d_h, 0) + e_h - e_t``;
* a boundary bw-side of tile i has multiplicity ``d_i - e_i``;
* a boundary wb-side of tile i has multiplicity ``e_i``.

The base graph holds these formulas as one (edge, tail, head) plan per
edge, a boundary side taking the outer face as its other tile.  e is
*realizable* exactly when all interior multiplicities are nonnegative (the
box handles the boundary).  The minimal matching is the e = 0
configuration; it is computed independently as a sum over the regions
``G_k = {i : d_i >= k}`` of their boundary bw-sides, and both routes are
checked against each other at runtime.

A *flip* at tile i lowers every bw-side of the tile by one and raises every
wb-side by one, sending the configuration for e to the one for ``e + unit_i``.
``support_summary`` reads in one pass over the support both whether a
configuration keeps differently-marked corners apart and how many of its
support components are simple cycles (its coefficient is 2^cycles).
The inverse recovery — from an edge multiset back to e — is a height read.
A configuration minus the minimal matching is the sum of e_i flips at each
tile i, so e is its height function relative to the minimal matching, and
every tile has a boundary side whose multiplicity is e_i (a wb-side) or
d_i - e_i (a bw-side).  e is read off one such side per tile, and the
closed form of that e must give the input back.  The flip poset reads each
configuration it makes back this way, once, as its flip check.
"""

from __future__ import annotations

from dimercluster.base_graph import BW


def add_configs(a, b):
    out = dict(a)
    for e, m in b.items():
        m2 = out.get(e, 0) + m
        if m2:
            out[e] = m2
        elif e in out:
            del out[e]
    return out


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
    config = {}
    for edge, tail, head in graph.closed_form_plan:
        m = max(dd[tail] - dd[head], 0) + ee[head] - ee[tail]
        if m:
            if m < 0:
                raise ValueError(
                    "exponent vector %r is not realizable (edge %r would have "
                    "multiplicity %d)" % (tuple(e), edge, m)
                )
            config[edge] = m
    return config


def minimal_matching(graph, d):
    """The e = 0 configuration, computed two independent ways.

    Both routes run and are compared on every call, which returns the
    closed-form dict.
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
    config = {}
    for k in (1, 2):
        region = {i for i in range(graph.n) if d[i] >= k}
        for i in region:
            for edge in graph.tiles[i].edges:
                others = [t for t in graph.edge_tiles[edge] if t != i]
                if others and others[0] in region:
                    continue  # interior to the region
                if graph.edge_class(edge, i) == BW:
                    config[edge] = config.get(edge, 0) + 1
    return config


# ---- flips ---------------------------------------------------------------------


def flip(graph, config, tile_index):
    """bw-sides of the tile drop by one, wb-sides rise by one."""
    return add_configs(config, graph.flip_deltas[tile_index])


def is_flippable(graph, d, config, tile_index):
    if d[tile_index] < 1:
        return False
    for edge in graph.bw_sides[tile_index]:
        if config.get(edge, 0) < 1:
            return False
    return True


# ---- support structure -----------------------------------------------------------


def support_summary(config, labels):
    """(monochromatic, cycles) of a configuration, from one pass over its
    support (the edges of nonzero multiplicity).

    labels maps marked corners to their colors (``BaseGraph.node_labels``).
    The configuration is monochromatic when no support component holds two
    differently-marked corners.  cycles counts the components that are
    simple cycles: every vertex meets exactly two support edges (so the
    edge and vertex counts agree), there are at least four, and not every
    edge is doubled.
    """
    adj = {}
    odd_ends = set()  # the ends of odd-multiplicity edges
    for (p, q), m in config.items():
        if m:
            if p in adj:
                adj[p].append(q)
            else:
                adj[p] = [q]
            if q in adj:
                adj[q].append(p)
            else:
                adj[q] = [p]
            if m % 2:
                odd_ends.add(p)
                odd_ends.add(q)
    monochromatic = True
    cycles = 0
    seen = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        size = 0
        ring = True  # every vertex so far meets two support edges
        odd = False
        color = None
        while stack:
            v = stack.pop()
            size += 1
            ws = adj[v]
            if len(ws) != 2:
                ring = False
            if v in odd_ends:
                odd = True
            c = labels.get(v)
            if c is not None:
                if color is None:
                    color = c
                elif c != color:
                    monochromatic = False
            for w in ws:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if ring and odd and size >= 4:
            cycles += 1
    return monochromatic, cycles


# ---- exponent recovery -------------------------------------------------------------


def e_from_config(graph, d, config):
    """Read the exponent vector off one boundary side per tile.

    Inverse of config_from_e: e_i is the multiplicity of the tile's boundary
    side (``graph.boundary_sides``) on a wb-side, d_i minus it on a bw-side.
    A configuration equal to the closed form of that vector is returned at
    once.  Otherwise raises ValueError: if a key is not an edge of the graph,
    if a multiplicity is negative, or if the multiset is not the
    configuration of the vector read this way (its closed form must give the
    input back).
    """
    e = tuple(
        config.get(edge, 0) if is_wb else d[i] - config.get(edge, 0)
        for i, (edge, is_wb) in enumerate(graph.boundary_sides)
    )
    try:
        closed = config_from_e(graph, d, e)
    except ValueError:
        closed = None
    if closed == config:
        return e
    for edge, m in config.items():
        if edge not in graph.edge_tiles:
            raise ValueError("%r is not an edge of the base graph" % (edge,))
        if m < 0:
            raise ValueError("edge %r has negative multiplicity %d" % (edge, m))
    if closed != {edge: m for edge, m in config.items() if m}:
        raise ValueError("not the configuration of its boundary height %r" % (e,))
    return e


# ---- weights -----------------------------------------------------------------------


def x_exponents(graph, config):
    """Exponent vector of the product of labeled edge weights."""
    out = [0] * graph.n
    for edge, m in config.items():
        label = graph.edge_weights.get(edge)
        if label is not None:
            out[label] += m
    return tuple(out)
