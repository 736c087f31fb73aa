"""The height read of ``e_from_config`` against the cycle peels it replaced.

The original recovery re-enumerated every simple cycle of the support before
each peel and peeled the least by ``(-length, enclosed tiles, sorted
edges)``.  Its cycle search, tile test and peel loop are kept below verbatim
as the reference; the library must give the same exponent vector on every
rank-4 and rank-5 poset configuration and on seeded perturbations of them
where the reference's vector has the input as its closed form, and raise
``ValueError`` everywhere else: where the reference raised, where a
perturbation makes a multiplicity negative, and where the reference's
vector's closed form is not the input (the peel passes over a leftover even
edge).  The later peel (``reference.e_from_config_by_peel``) must enumerate
the same cycles as the original, and the height read must equal it on every
poset configuration at ranks 4-6.
"""

import random
import re

import pytest

from dimercluster.base_graph import edge_key
from dimercluster.mixed_dimer import config_from_e, minimal_matching
from reference import (
    _support_cycles,
    add_configs,
    as_dict,
    config_valences,
    e_from_config,
    e_from_config_by_peel,
)

# ---- frozen reference (do not edit) ----------------------------------------------------


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


def reference_e_from_config(graph, d, config):
    """Recover the exponent vector by peeling cycles off config + minimal.

    Inverse of config_from_e; raises ValueError if the multiset is not a
    valid configuration for the root.
    """
    total = add_configs(config, as_dict(graph, minimal_matching(graph, d)))
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


# ---- comparisons -------------------------------------------------------------------------

# the library's one refusal of a multiset that is not a configuration
NOT_A_CONFIGURATION = re.compile(r"not the configuration of its boundary height \(")


def outcome(recover, graph, d, config):
    try:
        return recover(graph, d, config)
    except ValueError as exc:
        return ("ValueError", str(exc))


def perturbed_inputs(graph, configs, rng):
    """Per configuration: one with one or two edges moved by -1, +1 or +2,
    and its sum with a random configuration of the same poset."""
    for config in configs:
        moved = list(config)
        for _ in range(rng.randint(1, 2)):
            k = graph.edge_index[rng.choice(graph.edges)]
            moved[k] += rng.choice((-1, 1, 2))
        yield tuple(moved)
        yield tuple(a + b for a, b in zip(config, rng.choice(configs)))


def maps_back(graph, d, e, config):
    """Whether the closed form of e is config."""
    try:
        return config_from_e(graph, d, e) == config
    except ValueError:
        return False


def assert_same_cycles(graph, d, config):
    """config is a dict configuration."""
    total = add_configs(config, as_dict(graph, minimal_matching(graph, d)))
    support = [edge for edge, m in total.items() if m > 0]
    reference = {
        frozenset(edge_key(c[i], c[(i + 1) % len(c)]) for i in range(len(c)))
        for c in _simple_cycles(support)
    }
    found = [frozenset(edges) for edges in _support_cycles(support)]
    assert len(found) == len(set(found))
    assert set(found) == reference


@pytest.mark.parametrize("rank", [4, 5])
def test_peel_matches_reference_on_every_poset_configuration(request, rank):
    sweep = request.getfixturevalue("sweep%d" % rank)
    for entry in sweep.entries:
        for d, poset in entry.posets.items():
            for e in poset.elements:
                config = config_from_e(entry.graph, d, e)
                view = as_dict(entry.graph, config)
                assert e_from_config(entry.graph, d, config) == e
                assert reference_e_from_config(entry.graph, d, view) == e
                assert_same_cycles(entry.graph, d, view)


@pytest.mark.parametrize("rank,count", [(4, 384), (5, 1926), (6, 8928)])
def test_height_equals_the_frozen_peel_on_every_poset_configuration(request, rank, count):
    sweep = request.getfixturevalue("sweep%d" % rank)
    seen = 0
    for entry in sweep.entries:
        for d, poset in entry.posets.items():
            for e in poset.elements:
                config = config_from_e(entry.graph, d, e)
                assert e_from_config(entry.graph, d, config) == e
                assert e_from_config_by_peel(entry.graph, d, as_dict(entry.graph, config)) == e
                seen += 1
    assert seen == count


@pytest.mark.parametrize("rank", [4, 5])
def test_peel_matches_reference_on_perturbed_inputs(request, rank):
    sweep = request.getfixturevalue("sweep%d" % rank)
    rng = random.Random(20200 + rank)
    valid = invalid = negative = leftover = 0
    for entry in sweep.entries:
        for d, poset in entry.posets.items():
            configs = [config_from_e(entry.graph, d, e) for e in poset.elements]
            for config in perturbed_inputs(entry.graph, configs, rng):
                view = as_dict(entry.graph, config)
                assert_same_cycles(entry.graph, d, view)
                if any(m < 0 for m in config):
                    # the reference never checked signs; the library refuses
                    with pytest.raises(ValueError, match="negative multiplicity"):
                        e_from_config(entry.graph, d, config)
                    negative += 1
                    continue
                want = outcome(reference_e_from_config, entry.graph, d, view)
                got = outcome(e_from_config, entry.graph, d, config)
                by_peel = outcome(e_from_config_by_peel, entry.graph, d, view)
                assert got == by_peel or got[0] == by_peel[0] == "ValueError"
                if want[0] == "ValueError":
                    assert got[0] == "ValueError" and NOT_A_CONFIGURATION.match(got[1])
                    invalid += 1
                    continue
                valid += 1
                if maps_back(entry.graph, d, want, config):
                    assert got == want
                else:
                    # the reference's vector belongs to another configuration
                    assert got[0] == "ValueError" and NOT_A_CONFIGURATION.match(got[1])
                    leftover += 1
    # every outcome is exercised, the reference's two in quantity
    assert valid >= 100 and invalid >= 100 and negative > 0 and leftover > 0
