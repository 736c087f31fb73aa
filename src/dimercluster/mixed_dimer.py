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
The inverse recovery — from an edge multiset back to e — superimposes the
configuration with the minimal matching and peels simple cycles off the
superposition, crediting every tile a cycle encloses (an exact ray cast from
the tile centre against the cycle's vertical sides).  The simple cycles are
enumerated once per configuration, on the 2-core of its support (tails of
degree-1 vertices lie on no cycle), with chains of degree-2 vertices
between branch vertices taken as single steps.  They are ranked once by
(longest first, enclosed tiles, sorted edges), and each in turn is peeled
for as long as all its edges stay positive.  Peeling only shrinks the
support, so this is the same as re-choosing the least-ranked remaining cycle
after every single peel.  A leftover even edge passes the peel, so the
recovered vector's closed form must give the input back.
"""

from __future__ import annotations

import weakref

from dimercluster.base_graph import BW, edge_key

# graph -> {root: minimal matching}; an entry lives as long as its graph.
_MINIMAL_MATCHINGS = weakref.WeakKeyDictionary()


def add_configs(a, b):
    out = dict(a)
    for e, m in b.items():
        m2 = out.get(e, 0) + m
        if m2:
            out[e] = m2
        elif e in out:
            del out[e]
    return out


def config_valences(config):
    val = {}
    for (p, q), m in config.items():
        val[p] = val.get(p, 0) + m
        val[q] = val.get(q, 0) + m
    return val


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

    The routes are compared once per (graph, d); every call returns a fresh
    dict.
    """
    d = tuple(d)
    per_root = _MINIMAL_MATCHINGS.setdefault(graph, {})
    if d not in per_root:
        closed = config_from_e(graph, d, (0,) * graph.n)
        regional = _region_minimal_matching(graph, d)
        if closed != regional:
            raise AssertionError(
                "minimal-matching routes disagree: %r vs %r" % (closed, regional)
            )
        per_root[d] = closed
    return dict(per_root[d])


def _region_minimal_matching(graph, d):
    """Sum over k of the bw-sides of the region {i : d_i >= k}."""
    config = {}
    for k in (1, 2):
        region = {i for i in range(graph.n) if d[i] >= k}
        for i in region:
            for edge in graph.tiles[i].edges():
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


def _support_cycles(edges):
    """Every simple cycle of at least four edges in an undirected edge set,
    each as a list of canonical edges.

    A vertex of degree 1 lies on no cycle, so those are stripped until the
    2-core is left.  A component of the core without a branch vertex (degree
    at least 3) is exactly one cycle.  Every other cycle passes through a
    branch vertex: the core is cut into chains of degree-2 vertices between
    branch vertices, and each cycle is found once, as a path of chains that
    leaves and re-enters its least branch vertex.
    """
    adj = {}
    for p, q in edges:
        if p != q:  # a loop edge lies on no simple cycle
            adj.setdefault(p, set()).add(q)
            adj.setdefault(q, set()).add(p)
    leaves = [v for v, ws in adj.items() if len(ws) == 1]
    while leaves:
        v = leaves.pop()
        for w in adj.pop(v):
            ws = adj[w]
            ws.discard(v)
            if len(ws) == 1:
                leaves.append(w)

    def walk(path):
        """Extend path through degree-2 vertices up to a branch vertex or
        back to its start."""
        while len(adj[path[-1]]) == 2 and path[-1] != path[0]:
            a, b = adj[path[-1]]
            path.append(b if a == path[-2] else a)
        return [edge_key(p, q) for p, q in zip(path, path[1:])]

    cycles = []
    branch = sorted(v for v, ws in adj.items() if len(ws) > 2)
    links = {b: [] for b in branch}  # branch vertex -> [(chain index, far end)]
    chains = []
    walked = set()  # (far end, last step) of every chain: its reverse start
    for b in branch:
        for w in adj[b]:
            if (b, w) in walked:
                continue
            path = [b, w]
            chain = walk(path)
            walked.add((path[-1], path[-2]))
            if path[-1] == b:
                cycles.append(chain)  # a loop through one branch vertex
            else:
                links[b].append((len(chains), path[-1]))
                links[path[-1]].append((len(chains), b))
                chains.append(chain)
    on_chains = {v for chain in chains + cycles for edge in chain for v in edge}
    for v in adj:
        if v not in on_chains:  # a component that is one cycle
            path = [v, next(iter(adj[v]))]
            chain = walk(path)
            on_chains.update(path)
            cycles.append(chain)

    for b0 in branch:
        stack = [(b0, (), (b0,))]  # (vertex, chains taken, branch vertices met)
        while stack:
            v, route, seen = stack.pop()
            for c, w in links[v]:
                if w == b0:
                    if route and route[0] < c:  # one of the two directions
                        cycles.append([edge for i in route + (c,) for edge in chains[i]])
                elif w > b0 and w not in seen:
                    stack.append((w, route + (c,), seen + (w,)))
    return [c for c in cycles if len(c) >= 4]


def enclosed_tiles(graph, edges):
    """Tiles whose first cell's centre lies inside the cycle with these
    canonical edges: a ray cast east from the centre crosses an odd number of
    the cycle's vertical sides."""
    sides = [(p[0], p[1], q[1]) for p, q in edges if p[0] == q[0]]
    out = []
    for tile in graph.tiles:
        a, b = tile.cells[0]
        if sum(x > a and y1 <= b < y2 for x, y1, y2 in sides) % 2:
            out.append(tile.index)
    return tuple(out)


def e_from_config(graph, d, config):
    """Recover the exponent vector by peeling cycles off config + minimal.

    Inverse of config_from_e; raises ValueError if the multiset is not a
    valid configuration for the root (the peeled vector's closed form must
    give it back), if a key is not an edge of the graph, or if a
    multiplicity is negative.
    """
    for edge, m in config.items():
        if edge not in graph.edge_tiles:
            raise ValueError("%r is not an edge of the base graph" % (edge,))
        if m < 0:
            raise ValueError("edge %r has negative multiplicity %d" % (edge, m))
    total = add_configs(config, minimal_matching(graph, d))
    if any(m % 2 for m in config_valences(total).values()):
        raise ValueError("superimposed valences are odd; not a configuration")
    ranked = sorted(
        (-len(edges), enclosed_tiles(graph, edges), tuple(sorted(edges)))
        for edges in _support_cycles([edge for edge, m in total.items() if m > 0])
    )
    e = [0] * graph.n
    # a cycle passed over has lost an edge and stays dead: one walk suffices
    for _, enclosed, edges in ranked:
        times = min(total[edge] for edge in edges)
        if times > 0:
            for edge in edges:
                total[edge] -= times
            for t in enclosed:
                e[t] += times
    if any(m % 2 for m in total.values()):
        raise ValueError("leftover odd multiplicity after peeling")
    e = tuple(e)
    # a leftover even edge passes the peel, so the closed form has the last word
    try:
        closed = config_from_e(graph, d, e)
    except ValueError:
        closed = None
    if closed != {edge: m for edge, m in config.items() if m}:
        raise ValueError("not the configuration of the peeled exponent vector %r" % (e,))
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
