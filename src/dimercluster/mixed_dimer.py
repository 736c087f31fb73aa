"""Mixed configurations on a base graph: multisets of edges with flips.

A configuration is a map ``edge -> multiplicity`` (zero entries dropped).
For a root d and an exponent vector e in the box ``0 <= e <= d``, the closed
form gives one configuration:

* the edge shared by an arrow ``t -> h`` has multiplicity
  ``max(d_t - d_h, 0) + e_h - e_t``;
* a boundary bw-side of tile i has multiplicity ``d_i - e_i``;
* a boundary wb-side of tile i has multiplicity ``e_i``.

e is *realizable* exactly when all interior multiplicities are nonnegative
(the box handles the boundary).  The minimal matching is the e = 0
configuration; it is computed independently as a sum over the regions
``G_k = {i : d_i >= k}`` of their boundary bw-sides, and both routes are
checked against each other at runtime.

A *flip* at tile i lowers every bw-side of the tile by one and raises every
wb-side by one, sending the configuration for e to the one for ``e + unit_i``.
The inverse recovery — from an edge multiset back to e — superimposes the
configuration with the minimal matching and repeatedly peels the longest
simple cycle, crediting every enclosed tile (exact integer point-in-polygon
on doubled coordinates).
"""

from __future__ import annotations

import weakref

from dimercluster.base_graph import BW, WB

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


def interior_multiplicity(d, e, tail, head):
    return max(d[tail] - d[head], 0) + e[head] - e[tail]


def config_from_e(graph, d, e, check=True):
    """Configuration for an exponent vector, from the multiplicity formulas."""
    config = {}
    for edge in graph.edges:
        tiles = graph.edge_tiles[edge]
        if len(tiles) == 2:
            i, j = tiles
            if graph.quiver.arrow_sign(i, j) == 1:
                tail, head = i, j
            else:
                tail, head = j, i
            m = interior_multiplicity(d, e, tail, head)
        else:
            (i,) = tiles
            if graph.edge_class(edge, i) == BW:
                m = d[i] - e[i]
            else:
                m = e[i]
        if check and m < 0:
            raise ValueError(
                "exponent vector %r is not realizable (edge %r would have "
                "multiplicity %d)" % (tuple(e), edge, m)
            )
        if m:
            config[edge] = m
    return config


def is_realizable(graph, d, e):
    if any(not (0 <= e[i] <= d[i]) for i in range(graph.n)):
        return False
    try:
        config_from_e(graph, d, e)
    except ValueError:
        return False
    return True


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
    delta = {}
    for edge in graph.tiles[tile_index].edges():
        delta[edge] = 1 if graph.edge_class(edge, tile_index) == WB else -1
    return add_configs(config, delta)


def is_flippable(graph, d, config, tile_index):
    if d[tile_index] < 1:
        return False
    return all(
        config.get(edge, 0) >= 1
        for edge in graph.tile_class_edges(tile_index, BW)
    )


def config_from_e_by_flips(graph, d, e):
    """Flip tile i e_i times, i ascending; negative multiplicities are
    tolerated mid-sequence and must all cancel by the end."""
    config = minimal_matching(graph, d)
    for i in range(graph.n):
        for _ in range(e[i]):
            config = flip(graph, config, i)
    if any(m < 0 for m in config.values()):
        raise ValueError("flip sequence for %r left negative multiplicities" % (e,))
    return config


# ---- support structure -----------------------------------------------------------


def support_components(config):
    """Connected components of the multiplicity-positive edge set, as
    (vertices, edges) pairs."""
    adj = {}
    for (p, q), m in config.items():
        if m:
            adj.setdefault(p, set()).add(q)
            adj.setdefault(q, set()).add(p)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        verts = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in verts:
                    verts.add(w)
                    frontier.append(w)
        seen |= verts
        edges = {e for e in config if config[e] and e[0] in verts}
        comps.append((verts, edges))
    return comps


def count_cycles(config):
    """Components of the support that are simple cycles.

    A component counts when every vertex meets exactly two distinct support
    edges, the edge and vertex counts agree (at least 4), and not every edge
    is doubled.
    """
    total = 0
    for verts, edges in support_components(config):
        if len(edges) != len(verts) or len(edges) < 4:
            continue
        degree = {}
        for p, q in edges:
            degree[p] = degree.get(p, 0) + 1
            degree[q] = degree.get(q, 0) + 1
        if any(deg != 2 for deg in degree.values()):
            continue
        if all(config[e] % 2 == 0 for e in edges):
            continue
        total += 1
    return total


def is_monochromatic(graph, d, config):
    """No support component touches two differently-marked corners."""
    labels = graph.node_labels(d)
    for verts, _ in support_components(config):
        seen = {labels[v] for v in verts if v in labels}
        if len(seen) > 1:
            return False
    return True


# ---- exponent recovery -------------------------------------------------------------


def _simple_cycles(edges):
    """All simple cycles (as vertex lists) in an undirected edge set."""
    adj = {}
    for p, q in edges:
        adj.setdefault(p, set()).add(q)
        adj.setdefault(q, set()).add(p)
    cycles = []
    vertices = sorted(adj)
    for v0 in vertices:
        # cycles whose minimum vertex is v0; direction fixed by second < last
        stack = [(v0, [v0])]
        while stack:
            v, path = stack.pop()
            for w in sorted(adj[v]):
                if w == v0 and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(list(path))
                elif w > v0 and w not in path:
                    stack.append((w, path + [w]))
    return [c for c in cycles if len(c) >= 4]


def _point_in_polygon(cycle, point):
    """Exact ray cast in doubled coordinates; point has odd coordinates."""
    px, py = point
    inside = False
    for i, p in enumerate(cycle):
        q = cycle[(i + 1) % len(cycle)]
        x1, y1 = 2 * p[0], 2 * p[1]
        x2, y2 = 2 * q[0], 2 * q[1]
        if x1 == x2 and min(y1, y2) < py < max(y1, y2) and x1 > px:
            inside = not inside
    return inside


def enclosed_tiles(graph, cycle):
    out = []
    for tile in graph.tiles:
        a, b = tile.cells[0]
        if _point_in_polygon(cycle, (2 * a + 1, 2 * b + 1)):
            out.append(tile.index)
    return tuple(out)


def e_from_config(graph, d, config):
    """Recover the exponent vector by peeling cycles off config + minimal.

    Inverse of config_from_e; raises ValueError if the multiset is not a
    valid configuration for the root.
    """
    total = add_configs(config, minimal_matching(graph, d))
    if any(m % 2 for m in config_valences(total).values()):
        raise ValueError("superimposed valences are odd; not a configuration")
    e = [0] * graph.n
    while True:
        support = [edge for edge, m in total.items() if m > 0]
        cycles = _simple_cycles(support)
        if not cycles:
            break
        best = None
        for cycle in cycles:
            enclosed = enclosed_tiles(graph, cycle)
            edges = sorted(
                (min(cycle[i], cycle[(i + 1) % len(cycle)]),
                 max(cycle[i], cycle[(i + 1) % len(cycle)]))
                for i in range(len(cycle))
            )
            key = (-len(cycle), enclosed, tuple(edges))
            if best is None or key < best[0]:
                best = (key, cycle, enclosed, edges)
        _, cycle, enclosed, edges = best
        for edge in edges:
            m = total[edge] - 1
            if m:
                total[edge] = m
            else:
                del total[edge]
        for t in enclosed:
            e[t] += 1
    if any(m % 2 for m in total.values()):
        raise ValueError("leftover odd multiplicity after peeling")
    return tuple(e)


# ---- weights -----------------------------------------------------------------------


def x_exponents(graph, config):
    """Exponent vector of the product of labeled edge weights."""
    out = [0] * graph.n
    for edge, m in config.items():
        label = graph.edge_weights.get(edge)
        if label is not None:
            out[label] += m
    return tuple(out)
