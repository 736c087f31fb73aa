"""Reference routes that only the tests use.

Each restates, by a second route, a quantity the package computes, so that
tests can compare the two.  The package holds a configuration as a tuple of
multiplicities indexed like ``graph.edges``; the frozen routes below hold it
as the dict ``edge -> multiplicity`` with zeros dropped that the package used
before, and ``as_dict`` turns the one into the other (``corner_marks``
gives the marked corners in the package's form, ``corner_colors`` in the
form ``support_summary_by_incidence`` reads).

* ``add_configs``: the sum of two dict configurations;

* ``is_flippable``: the flip test one tile at a time, as the package ran it
  before the flip poset's search tested each tile inline, against
  ``FlipPoset``;
* ``config_from_e_by_flips``: the configuration for e by a flip sequence
  from the minimal matching, against the closed-form multiplicities;
* ``component_charges``: the closed-form oracle's charge count per component
  of S, against the cycle count of the dimer configuration;
* ``arrow_conditions_hold``: the box and every arrow inequality, checked on
  one vector as the package did before its tree walk listed only the
  vectors that pass them;
* ``coefficient_of``: the closed-form coefficient of any vector, as the
  package computed it before the pass over the parent edges, with S split
  into components by a search over the diagram, against
  ``tran_f_polynomial``;
* ``arrow_valid_count`` (with ``_step``, the transfer table of one parent
  edge): the number of vectors that pass the box and every arrow
  inequality, taking only the steps inside the root's support, as the
  package counted it to bound the flip poset's size before
  ``poset_size`` counted it exactly from the rule table, against
  ``poset_size`` (a bound) and the box scan;
* ``arrow_valid_count_by_tree_steps``: the same count as the package made
  it before it took only the steps inside the root's support, with one
  transfer table per diagram edge, against ``arrow_valid_count``;
* ``tran_f_polynomial_by_tree_walk`` (with ``_coefficient``): the
  closed-form F-polynomial as the package computed it before the rule
  table, walking the ``_step`` ranges and scoring each vector by tests on
  (d, e) along the parent edges, against ``tran_f_polynomial``;
* ``tran_f_polynomial_by_rule_walk`` (with ``_rule``, ``_RULES``, its
  five-kind table, and ``_rule_coefficient``): the closed-form F-polynomial
  as the package computed it before its walk scored each prefix as it
  extended it, listing every vector that passes the box and every arrow and
  scoring each in a second pass over the rule table, against
  ``tran_f_polynomial``, and its table against ``tran_oracle._RULES``;
* ``poset_size_by_pairs``: the flip poset's size as the package counted it
  before ``poset_size`` became the forward walk of ``tran_f_polynomial``,
  by transfer tables multiplied back over the root's support with the
  charge pair (uncharged, charged once) of v's open component as state,
  reading the five-kind ``_RULES``, against ``poset_size``;
* ``tran_f_polynomial_by_charge_steps`` and ``poset_size_by_charge_steps``
  (with ``_kind_rule``, ``_KIND_RULES``, its four-kind table, ``_kind_steps``
  and ``_charge_step``): the closed-form F-polynomial and the flip poset's
  size as the package computed them before the charge rule was folded into
  its move table, each prefix extended along every parent edge (the count:
  every edge into the support) through one charge-step call per move,
  against ``tran_f_polynomial`` and ``poset_size``, and the table composed
  with ``_charge_step`` against ``tran_oracle._RULES``;
* ``acceptable_evectors``: the closed-form support, against the poset;
* ``tran_f_polynomial_by_box``: the closed-form F-polynomial as the package
  computed it before the tree walk, scoring every vector of the box with the
  ``coefficient_of`` above, against ``tran_f_polynomial``;
* ``cartan_matrix`` and ``roots_by_reflection``: the positive roots as the
  package listed them before the closed form, by closing the reflection
  orbit of the simple roots, against ``positive_roots``;
* ``roots_by_ranges``: the positive roots as the package listed them before
  it read the closed form off its one run table, from explicit index
  ranges, against ``positive_roots``;
* ``enumerate_cluster_variables``: every cluster variable by a breadth-first
  search over the whole exchange graph, against the source-sweep walk;
* ``mirror_atlas`` and ``reversed_atlas``: the atlases of σQ (the tips
  swapped) and ρQ (every arrow reversed) read off Q's walk, as the package
  read them before one ``moved_atlas`` took any move (σρ was the mirror of
  the reversed atlas, two passes), against ``moved_atlas``;
* ``mutate_ext_by_entries`` and ``mutate_seed_by_variables``: matrix
  mutation with one ``max`` per entry, and seed mutation multiplying in one
  variable per unit of |b_ik|, y's included, as the package mutated before
  it built each side's y-part as one monomial and added row k's positive or
  negative part to each row, against ``mutate_ext`` and ``mutate_seed``;
* ``verify_root_by_extraction``: the report of one instance as the package
  made it before the mutation oracle compared expansions first, reading the
  walk's F and g off its expansion on every instance, against
  ``verify_root``;
* ``is_distributive``: distributivity of a flip lattice by the triple
  meet/join loop, against the absence of both ``FlipPoset.n5_witness`` and
  ``FlipPoset.m3_witness`` (Birkhoff's theorem);
* ``add_terms``, ``mul_terms``, ``leading_term`` and ``divide_terms``: Laurent
  arithmetic on dicts keyed by exponent tuples, as the package did it before
  exponents were packed into ints, against ``LaurentPolynomial``;
* ``support_summary_by_dict``: the one support pass as the package ran it
  on dict configurations, with an adjacency dict built per configuration,
  against ``support_summary``;
* ``support_summary_by_incidence``: the support pass as the package ran it
  before it counted cycles as enclosed faces and traced only the marked
  paths, a search over every corner along ``graph.incidence``; it reads any
  graph with corners and an incidence, so it also checks hand-made supports
  that are no base graph, and against ``support_summary``;
* ``support_summary_every_mark``: the support pass as the package ran it
  before its traces skipped the first mark's colour, tracing from every
  marked corner, against ``support_summary`` with the marks in every
  colour order;
* ``edge_class``: the class of an edge as a side of one tile, the method
  ``BaseGraph`` had before every route read the plan's slot directly, for
  the frozen routes below;
* ``support_components``, ``count_cycles``, ``is_monochromatic``,
  ``config_from_e_by_classes`` and ``flip_poset_by_classes``: the flip poset
  as the package built it before one support pass per configuration and the
  per-graph plans, with the support decomposed component by component and
  every edge's tiles, arrow sign and side class read afresh, against
  ``support_summary`` and ``FlipPoset``;
* ``e_from_config_by_peel`` (with ``config_valences``, ``_support_cycles``
  and ``enclosed_tiles``): the exponent vector of a configuration as the
  package recovered it before the height read, by peeling the simple cycles
  of config + minimal matching, against ``e_from_config``;
* ``e_from_config`` (with ``boundary_sides``, the table it reads) and
  ``flip_poset_by_read_back``: the height read, and the flip poset as the
  package built it while it read every configuration back to its e and
  weighed every element, before one check per graph proved the closed form
  and the weighting affine in e, against ``config_from_e`` and
  ``FlipPoset`` with the weights read off its Laurent terms;
* ``FrozenTables``: the per-graph tables (edges, corners, incidence, flip
  tables, closed-form plan, boundary sides, weights) as ``BaseGraph`` built
  them before its one per-edge record, from the corner set, the tiles of
  every edge and a class per (edge, tile), against ``BaseGraph``;
* ``arrow_sign`` and ``exchange_matrix``: the orientation as a sign per
  pair and as the matrix B, the two forms ``Quiver`` gave besides its arrows
  before the initial seed and the base graph's coloring read the arrows,
  against ``initial_seed`` and ``BaseGraph.sigma``; the frozen builders
  above read ``arrow_sign``;
* ``assign_weights_by_records``: the weight labels as ``BaseGraph`` claimed
  them before it read each tile's free sides off ``flip_deltas``, by a
  search of (tail, head) records with an offset per class, against
  ``weighted_edges``;
* ``build_tiles_by_candidates`` (with ``_hexagon_corners_by_branch``) and
  ``green_nodes_by_cases``: the tiles and the staircase steps as
  ``BaseGraph`` laid them out before it read them off the steps and the
  brick's sides, with the brick's corners in one list per direction, the
  fork tiles' cells from a table of candidates per direction and tile 0
  entered by no step, and the green corners with the doubled coordinate at
  1 a case of its own, against ``BaseGraph.tiles`` and ``green_nodes``;
* ``topological_order_by_kahn``: a quiver's vertex order as
  ``Quiver.topological_order`` computed it while quivers listed their
  diagram neighbours, the out-neighbours of each vertex read by a scan of
  the arrows, against ``Quiver.topological_order``;
* ``bound_by_walk``: a meet or join found by walking every bit of the common
  down- or up-set, as ``FlipPoset`` did before its one-bit check, against
  ``FlipPoset.meet`` and ``FlipPoset.join``.
"""

import itertools
import operator

from dimercluster.base_graph import BW, EAST, NORTH, WB, Tile, _square_corners, edge_key
from dimercluster.cluster_invariants import _mismatches, dimer_invariants
from dimercluster.laurent_poly import (
    DIVISION_STEP_LIMIT,
    ExactDivisionError,
    LaurentPolynomial,
    divide_exact,
    u_context,
    xy_context,
)
from dimercluster.mixed_dimer import (
    config_from_e,
    flip,
    minimal_matching,
    x_exponents,
)
from dimercluster.mutation_oracle import (
    Seed,
    denominator_vector,
    expansion_from_f_and_g,
    f_polynomial_from_expansion,
    g_vector_from_expansion,
    initial_seed,
    mutate_seed,
)
from dimercluster.quiver_core import check_root, dynkin_edges, format_quiver
from dimercluster.tran_oracle import tran_f_polynomial, tran_g_vector


def as_dict(graph, config):
    """The dict ``edge -> multiplicity`` (zeros dropped) of a configuration."""
    return {edge: m for edge, m in zip(graph.edges, config) if m}


def corner_marks(graph, d):
    """The marked corners for the root d, as ``support_summary`` reads them:
    corner index (into ``graph.corners``) -> color."""
    labels = graph.node_labels(d)
    return {c: labels[v] for c, v in enumerate(graph.corners) if v in labels}


def corner_colors(graph, d):
    """The colors of the graph's corners for the root d, indexed like
    ``graph.corners`` (None where unmarked), as ``support_summary_by_incidence``
    reads them."""
    labels = graph.node_labels(d)
    return [labels.get(v) for v in graph.corners]


def add_configs(a, b):
    out = dict(a)
    for e, m in b.items():
        m2 = out.get(e, 0) + m
        if m2:
            out[e] = m2
        elif e in out:
            del out[e]
    return out


def is_flippable(graph, d, config, tile_index):
    if d[tile_index] < 1:
        return False
    for k, delta in graph.flip_deltas[tile_index]:
        if delta < 0 and config[k] < 1:
            return False
    return True


def config_from_e_by_flips(graph, d, e):
    """Flip tile i e_i times, i ascending; negative multiplicities are
    tolerated mid-sequence and must all cancel by the end."""
    config = minimal_matching(graph, d)
    for i in range(graph.n):
        for _ in range(e[i]):
            config = flip(graph, config, i)
    if any(m < 0 for m in config):
        raise ValueError("flip sequence for %r left negative multiplicities" % (e,))
    return config


def arrow_conditions_hold(quiver, d, e):
    """Box constraint plus the per-arrow inequality (no coefficient logic)."""
    if any(not (0 <= e[i] <= d[i]) for i in range(quiver.n)):
        return False
    for t, h in quiver.arrows:
        if e[t] - e[h] > max(d[t] - d[h], 0):
            return False
    return True


def _s_components(n, d, e):
    """Connected components (diagram adjacency) of {i : (d_i, e_i) = (2, 1)}."""
    s = {i for i in range(n) if d[i] == 2 and e[i] == 1}
    adj = {i: set() for i in s}
    for a, b in dynkin_edges(n):
        if a in s and b in s:
            adj[a].add(b)
            adj[b].add(a)
    comps = []
    todo = set(s)
    while todo:
        root = todo.pop()
        comp = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        todo -= comp
        comps.append(frozenset(comp))
    return comps


def _critical_charges(quiver, d, e, comps):
    """Number of critical arrows charged to each component of S."""
    charges = {comp: 0 for comp in comps}
    comp_of = {i: comp for comp in comps for i in comp}
    for t, h in quiver.arrows:
        if (d[t], e[t]) == (2, 1) and (d[h], e[h]) == (1, 0):
            charges[comp_of[t]] += 1
        elif (d[t], e[t]) == (1, 1) and (d[h], e[h]) == (2, 1):
            charges[comp_of[h]] += 1
    return charges


def coefficient_of(quiver, d, e):
    """Coefficient of u^e in the F-polynomial (0 if e is not supported)."""
    e = tuple(int(x) for x in e)
    if not arrow_conditions_hold(quiver, d, e):
        return 0
    comps = _s_components(quiver.n, d, e)
    charges = _critical_charges(quiver, d, e, comps)
    if any(c >= 2 for c in charges.values()):
        return 0
    return 2 ** sum(1 for c in charges.values() if c == 0)


def component_charges(quiver, d, e):
    """Critical-arrow counts per component of S = {i : (d_i, e_i) = (2, 1)}.

    Returns {sorted component tuple: charge count}; a count >= 2 means the
    monomial u^e is killed, count 0 doubles the coefficient.
    """
    comps = _s_components(quiver.n, d, e)
    charges = _critical_charges(quiver, d, e, comps)
    return {tuple(sorted(comp)): c for comp, c in charges.items()}


def _coefficient(steps, d, e):
    """Coefficient of u^e for a vector e the tree walk visits.

    One pass over the parent edges in index order, parents first: a vertex of
    S takes its parent's component label when the parent is in S too, and
    starts a component (labelled by itself) otherwise; the arrow t -> h on
    the edge, if critical, charges the label of its S end.
    """
    n = len(d)
    label = [-1] * n  # the component of S holding v, -1 off S
    charges = [0] * n  # per label
    if d[0] == 2 and e[0] == 1:
        label[0] = 0
    for u, v, t, h, _ in steps:
        if d[v] == 2 and e[v] == 1:
            label[v] = label[u] if label[u] >= 0 else v
        if label[t] >= 0 and d[h] == 1 and e[h] == 0:
            charges[label[t]] += 1
        elif label[h] >= 0 and d[t] == 1 and e[t] == 1:
            charges[label[h]] += 1
    uncharged = 0
    for v in range(n):
        if label[v] == v:
            if charges[v] >= 2:
                return 0
            uncharged += not charges[v]
    return 2 ** uncharged


def _step(quiver, d, u, v):
    """(u, v, t, h, allowed) for the parent edge (u, v): t -> h is the arrow
    between them, and allowed[x] is the range of e_v that the box and that
    arrow leave when e_u = x."""
    if (u, v) in quiver.arrows:
        slack = max(d[u] - d[v], 0)
        return u, v, u, v, [range(max(x - slack, 0), d[v] + 1) for x in range(d[u] + 1)]
    slack = max(d[v] - d[u], 0)
    return u, v, v, u, [range(min(x + slack, d[v]) + 1) for x in range(d[u] + 1)]


def arrow_valid_count(quiver, d):
    """Number of e in the box that pass every arrow inequality: a scan of
    the parent edges from r plus |support| steps, after the O(n) root check.

    ways[v][x] counts the assignments to v's subtree with e_v = x, taken from
    the last step back.  A step into a vertex with d_v = 0 multiplies by 1,
    so only the steps inside the support are taken: the parent edges into
    its vertices past its lowest one, r, whose parents all lie in it.  These
    are the realizable exponent vectors, so the count bounds the size of the
    instance's flip poset.
    """
    d = check_root(quiver, d)
    r = next(v for v, x in enumerate(d) if x)
    steps = [_step(quiver, d, u, v) for u, v in dynkin_edges(quiver.n)[r:] if d[v]]
    ways = {v: [1] * (d[v] + 1) for v in range(r, quiver.n) if d[v]}
    for u, v, _, _, allowed in reversed(steps):
        below = ways[v]
        ways[u] = [w * sum(below[y] for y in allowed[x]) for x, w in enumerate(ways[u])]
    return sum(ways[r])


def tran_f_polynomial_by_tree_walk(quiver, d):
    """The sum of coefficient(e) * u^e over the vectors the tree walk
    visits: those in the box that pass every arrow inequality."""
    d = check_root(quiver, d)
    steps = [_step(quiver, d, u, v) for u, v in dynkin_edges(quiver.n)]
    vectors = [(x,) for x in range(d[0] + 1)]
    for u, _, _, _, allowed in steps:
        vectors = [e + (x,) for e in vectors for x in allowed[e[u]]]
    terms = {}
    for e in vectors:
        c = _coefficient(steps, d, e)
        if c:
            terms[e] = c
    return LaurentPolynomial(u_context(quiver.n), terms)


# a parent edge (u, v) as the rule walk told its kinds apart: v off S,
# charging u's component of S, v joining it, v opening its own, or opening
# it charged by a critical arrow
_KEEP, _CHARGE, _JOIN, _OPEN, _OPEN_CHARGED = range(5)


def _rule(du, dv, forward):
    """For each e_u, {e_v: kind} over the e_v in [0, d_v] that the arrow
    u -> v (forward) or v -> u allows: e_t - e_h <= max(d_t - d_h, 0)."""
    rule = [{} for _ in range(du + 1)]
    for x, y in itertools.product(range(du + 1), range(dv + 1)):
        (dt, et), (dh, eh) = ((du, x), (dv, y))[:: 1 if forward else -1]
        if et - eh > max(dt - dh, 0):
            continue
        critical = ((dt, et), (dh, eh)) in (((2, 1), (1, 0)), ((1, 1), (2, 1)))
        if (dv, y) != (2, 1):
            rule[x][y] = _CHARGE if critical else _KEEP
        elif (du, x) == (2, 1):
            rule[x][y] = _JOIN
        else:
            rule[x][y] = _OPEN_CHARGED if critical else _OPEN
    return rule


# keyed by (d_u, d_v, u -> v)
_RULES = {key: _rule(*key) for key in itertools.product(range(3), range(3), (True, False))}


def _rule_coefficient(steps, d, e):
    """Coefficient of u^e for a vector e the rule walk visits: one pass over
    the parent edges in index order, parents first, labelling each component
    of S by its top vertex and charging it as the rules say."""
    top = [-1] * len(d)  # the top vertex of v's component of S, -1 off S
    charges = [0] * len(d)  # per top vertex
    for u, v, rule in steps:
        kind = rule[e[u]][e[v]]
        if kind == _CHARGE:
            charges[top[u]] += 1
        elif kind == _JOIN:
            top[v] = top[u]
        elif kind != _KEEP:
            top[v] = v
            charges[v] = kind == _OPEN_CHARGED
    uncharged = 0
    for v, t in enumerate(top):
        if t == v:
            if charges[v] >= 2:
                return 0
            uncharged += not charges[v]
    return 2 ** uncharged


def tran_f_polynomial_by_rule_walk(quiver, d):
    """The sum of coefficient(e) * u^e over the vectors the walk along the
    ``_RULES`` ranges visits: those in the box that pass every arrow
    inequality, each scored by ``_rule_coefficient`` once listed."""
    d = check_root(quiver, d)
    steps = [
        (u, v, _RULES[d[u], d[v], (u, v) in quiver.arrows]) for u, v in dynkin_edges(quiver.n)
    ]
    vectors = [(x,) for x in range(d[0] + 1)]
    for u, _, rule in steps:
        vectors = [e + (x,) for e in vectors for x in rule[e[u]]]
    terms = {e: c for e in vectors if (c := _rule_coefficient(steps, d, e))}
    return LaurentPolynomial(u_context(quiver.n), terms)


def arrow_valid_count_by_tree_steps(quiver, d):
    """The vectors in the box that pass every arrow inequality, counted by
    transfer tables along every parent edge (``dynkin_edges``), from the
    last vertex back to vertex 0."""
    d = check_root(quiver, d)
    steps = []
    for u, v in dynkin_edges(quiver.n):
        if (u, v) in quiver.arrows:
            slack = max(d[u] - d[v], 0)
            allowed = [range(max(x - slack, 0), d[v] + 1) for x in range(d[u] + 1)]
        else:
            slack = max(d[v] - d[u], 0)
            allowed = [range(min(x + slack, d[v]) + 1) for x in range(d[u] + 1)]
        steps.append((u, v, allowed))
    ways = [[1] * (x + 1) for x in d]
    for u, v, allowed in reversed(steps):
        below = ways[v]
        ways[u] = [w * sum(below[y] for y in allowed[x]) for x, w in enumerate(ways[u])]
    return sum(ways[0])


def poset_size_by_pairs(quiver, d):
    """Number of e with nonzero coefficient: ways[v][x] counts the
    assignments to v's subtree with e_v = x and no closed component charged
    twice, as a pair (v's open component uncharged, charged once; the
    second is 0 off S), over the parent edges into the support's vertices
    past its lowest one, r, taken from the last back to r."""
    d = check_root(quiver, d)
    r = next(v for v, x in enumerate(d) if x)
    ways = {v: [(1, 0)] * (d[v] + 1) for v in range(r, quiver.n) if d[v]}
    edges = [(u, v) for u, v in dynkin_edges(quiver.n)[r:] if d[v]]
    for u, v in reversed(edges):
        rule = _RULES[d[u], d[v], (u, v) in quiver.arrows]
        below, table = ways[v], []
        for (a0, a1), kinds in zip(ways[u], rule):
            same = plus = 0  # keeping u's charge, adding one to it
            for y, kind in kinds.items():
                b0, b1 = below[y]
                if kind in (_KEEP, _JOIN):
                    same, plus = same + b0, plus + b1
                elif kind == _CHARGE:
                    plus += b0 + b1
                else:  # v's component closes here
                    same += b0 if kind == _OPEN_CHARGED else b0 + b1
            table.append((a0 * same, a1 * same + a0 * plus))
        ways[u] = table
    return sum(map(sum, ways[r]))


def _kind_rule(du, dv, forward):
    """For each e_u, {e_v: kind} over the e_v in [0, d_v] that the arrow
    u -> v (forward) or v -> u allows: e_t - e_h <= max(d_t - d_h, 0).  The
    four kinds of the charge-step walk: v joining u's component of S is
    read as ``_KEEP``."""
    rule = [{} for _ in range(du + 1)]
    for x, y in itertools.product(range(du + 1), range(dv + 1)):
        (dt, et), (dh, eh) = ((du, x), (dv, y))[:: 1 if forward else -1]
        if et - eh > max(dt - dh, 0):
            continue
        critical = ((dt, et), (dh, eh)) in (((2, 1), (1, 0)), ((1, 1), (2, 1)))
        if (dv, y) == (2, 1) != (du, x):
            rule[x][y] = _OPEN_CHARGED if critical else _OPEN
        else:  # an arrow inside S is never critical
            rule[x][y] = _CHARGE if critical else _KEEP
    return rule


# keyed by (d_u, d_v, u -> v)
_KIND_RULES = {
    key: _kind_rule(*key) for key in itertools.product(range(3), range(3), (True, False))
}


def _kind_steps(quiver, d, edges):
    """(u, v, rule) for each parent edge (u, v) in ``edges``."""
    return [(u, v, _KIND_RULES[d[u], d[v], (u, v) in quiver.arrows]) for u, v in edges]


def _charge_step(state, kind):
    """The score (c, k) of a prefix after a parent edge of this kind, from
    its score ``state`` before it, or None once a component of S would be
    charged twice: c is the charge of the last component opened (-1 before
    any), k the number closed uncharged.  An edge charges u's component,
    the open one."""
    if kind == _KEEP:
        return state
    c, k = state
    if kind == _CHARGE:
        return (1, k) if c == 0 else None
    return int(kind == _OPEN_CHARGED), k + (c == 0)  # the open one closes


def poset_size_by_charge_steps(quiver, d):
    """Number of e with nonzero coefficient: the walk of
    ``tran_f_polynomial_by_charge_steps`` over the parent edges into the
    support's vertices past its lowest one, r, with the prefixes that agree
    on c and on e of the last path vertex reached counted together."""
    d = check_root(quiver, d)
    r = next(v for v, x in enumerate(d) if x)
    edges = [(u, v) for u, v in dynkin_edges(quiver.n)[r:] if d[v]]
    ways = {(x, -1): 1 for x in range(d[r] + 1)}
    for _, v, rule in _kind_steps(quiver, d, edges):
        path = v < quiver.n - 2
        counted = {}
        for (x, c), w in ways.items():
            state = (c, 0)  # the count needs no k
            for y, kind in rule[x].items():
                step = _charge_step(state, kind)
                if step:
                    key = (y if path else x, step[0])
                    counted[key] = counted.get(key, 0) + w
        ways = counted
    return sum(ways.values())


def tran_f_polynomial_by_charge_steps(quiver, d):
    """The sum of coefficient(e) * u^e over the vectors in the box that pass
    every arrow inequality: each prefix (e, (c, k)) is extended along every
    parent edge through ``_charge_step``, and a full vector scores
    2^(k + [c = 0])."""
    d = check_root(quiver, d)
    prefixes = [((x,), (-1, 0)) for x in range(d[0] + 1)]
    for u, _, rule in _kind_steps(quiver, d, dynkin_edges(quiver.n)):
        extended = []
        for e, state in prefixes:
            for x, kind in rule[e[u]].items():
                step = _charge_step(state, kind)
                if step:
                    extended.append((e + (x,), step))
        prefixes = extended
    terms = {e: 2 ** (k + (c == 0)) for e, (c, k) in prefixes}
    return LaurentPolynomial(u_context(quiver.n), terms)


def acceptable_evectors(quiver, d):
    """All e with nonzero coefficient, ascending graded-lex."""
    return sorted(tran_f_polynomial(quiver, d).terms, key=lambda e: (sum(e), e))


def tran_f_polynomial_by_box(quiver, d):
    """The closed-form F-polynomial, scoring all prod(d_i + 1) vectors of the
    box with ``coefficient_of``."""
    d = check_root(quiver, d)
    terms = {}
    for e in itertools.product(*(range(x + 1) for x in d)):
        c = coefficient_of(quiver, d, e)
        if c:
            terms[e] = c
    return LaurentPolynomial(u_context(quiver.n), terms)


def cartan_matrix(n):
    """The Cartan matrix as a tuple of row tuples."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in dynkin_edges(n):
        a[i][j] = a[j][i] = -1
    return tuple(map(tuple, a))


def roots_by_reflection(n):
    """The positive roots in ascending graded-lex order, as the reflection-orbit
    closure of the simple roots: the simple reflection at i sends d to
    d - (A d)_i e_i for the Cartan matrix A, and the positive roots are
    exactly the orbit elements with all entries >= 0."""
    # the nonzero entries of each row of A: at most four
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in cartan_matrix(n)]
    simples = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for d in frontier:
            ad = [sum(x * d[j] for j, x in row) for row in rows]
            for i in range(n):
                img = list(d)
                img[i] -= ad[i]
                img = tuple(img)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    roots = [d for d in seen if all(x >= 0 for x in d) and any(d)]
    roots.sort(key=lambda d: (sum(d), d))
    return roots


def roots_by_ranges(n):
    """The positive roots in ascending graded-lex order, from the closed
    form: the 0/1 vectors whose support is connected in the diagram, and for
    0 <= i < j <= n - 3 the vector with 1 on [i, j), 2 on [j, n - 3] and 1 on
    both fork tips."""
    roots = [  # supports within the path 0 - ... - (n-2)
        (0,) * i + (1,) * (j - i) + (0,) * (n - j) for i in range(n - 1) for j in range(i + 1, n)
    ]
    roots.append((0,) * (n - 1) + (1,))  # the tip n - 1 alone
    for i in range(n - 2):
        # 1 on [i, n - 3] and the tip n - 1, without and with the tip n - 2,
        # then 2 on [j, n - 3] for each j past i
        roots.append((0,) * i + (1,) * (n - 2 - i) + (0, 1))
        roots.append((0,) * i + (1,) * (n - 2 - i) + (1, 1))
        roots.extend(
            (0,) * i + (1,) * (j - i) + (2,) * (n - 2 - j) + (1, 1) for j in range(i + 1, n - 2)
        )
    roots.sort(key=lambda d: (sum(d), d))
    return roots


def add_terms(a, b):
    """a + b for {exponent tuple: coefficient} dicts."""
    terms = dict(a)
    for exps, coeff in b.items():
        c = terms.get(exps, 0) + coeff
        if c:
            terms[exps] = c
        elif exps in terms:
            del terms[exps]
    return terms


def mul_terms(a, b):
    """a * b by the sparse convolution, one tuple per pair of terms."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = terms.get(e, 0) + c1 * c2
            if c:
                terms[e] = c
            elif e in terms:
                del terms[e]
    return terms


def leading_term(terms):
    """(exps, coeff) maximal in graded-lex order."""
    exps = max(terms, key=lambda e: (sum(e), e))
    return exps, terms[exps]


def divide_terms(numerator, denominator):
    """The exact quotient by cancelling the leading term of a copied remainder
    at every step; ExactDivisionError when there is none."""
    if not denominator:
        raise ExactDivisionError("division by zero polynomial")
    d_exps, d_coeff = leading_term(denominator)
    remainder = numerator
    quotient = {}
    steps = 0
    while remainder:
        steps += 1
        if steps > DIVISION_STEP_LIMIT:
            raise ExactDivisionError("division did not terminate (inexact input?)")
        r_exps, r_coeff = leading_term(remainder)
        q, r = divmod(r_coeff, d_coeff)
        if r:
            raise ExactDivisionError(
                "leading coefficient %d not divisible by %d" % (r_coeff, d_coeff)
            )
        t_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        quotient[t_exps] = quotient.get(t_exps, 0) + q
        product = mul_terms({t_exps: -q}, denominator)
        remainder = add_terms(remainder, product)
    return quotient


def support_summary_by_dict(config, labels):
    """(monochromatic, cycles) of a dict configuration, from one pass over
    its support; labels maps marked corners to their colors."""
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


def support_summary_by_incidence(graph, config, marks):
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


def support_summary_every_mark(graph, config, marks):
    """(monochromatic, cycles) of a configuration, with marks read as
    ``support_summary`` reads them: the cycles counted as the bounded faces
    of the support over ``graph.tile_tree``, and the support paths traced
    from every marked corner to the next marked corner, their end or back
    to the start."""
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
    for start, color in marks.items():
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
    """Components of the support that are simple cycles: every vertex meets
    exactly two distinct support edges, the edge and vertex counts agree (at
    least 4), and not every edge is doubled."""
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


def edge_class(graph, edge, tile_index):
    """The class (BW or WB) of edge as a side of tile tile_index, read off
    the edge's plan slot, as ``BaseGraph.edge_class`` gave it before the
    package read the slot directly."""
    return BW if graph.closed_form_plan[graph.edge_index[edge]][0] == tile_index else WB


def config_from_e_by_classes(graph, d, e):
    """The closed-form configuration, reading every edge's tiles, the sign of
    its arrow and its side class afresh."""
    config = {}
    for edge in graph.edges:
        tiles = [tile.index for tile in graph.tiles if edge in tile.edges]
        if len(tiles) == 2:
            i, j = tiles
            tail, head = (i, j) if arrow_sign(graph.quiver, i, j) == 1 else (j, i)
            m = max(d[tail] - d[head], 0) + e[head] - e[tail]
        else:
            (i,) = tiles
            m = d[i] - e[i] if edge_class(graph, edge, i) == BW else e[i]
        if m < 0:
            raise ValueError("exponent vector %r is not realizable" % (tuple(e),))
        if m:
            config[edge] = m
    return config


def _tile_class_edges(graph, tile_index, cls):
    return [e for e in graph.tiles[tile_index].edges if edge_class(graph, e, tile_index) == cls]


def _graded(e):
    return (sum(e), e)


def flip_poset_by_classes(graph, d):
    """(elements, excluded, covers, coefficients) of the flip poset, by the
    breadth-first build with the helpers above."""
    bottom = (0,) * graph.n
    configs = {bottom: as_dict(graph, minimal_matching(graph, d))}
    excluded = set()
    cover_sets = {bottom: set()}
    frontier = [bottom]
    while frontier:
        nxt = []
        for e in frontier:
            config = configs[e]
            for i in range(graph.n):
                if d[i] < 1 or any(config.get(x, 0) < 1 for x in _tile_class_edges(graph, i, BW)):
                    continue
                e2 = tuple(x + (k == i) for k, x in enumerate(e))
                if e2 in excluded:
                    continue
                if e2 not in configs:
                    delta = {x: 1 if edge_class(graph, x, i) == WB else -1 for x in graph.tiles[i].edges}
                    config2 = add_configs(config, delta)
                    assert config2 == config_from_e_by_classes(graph, d, e2)
                    if not is_monochromatic(graph, d, config2):
                        excluded.add(e2)
                        continue
                    configs[e2] = config2
                    cover_sets[e2] = set()
                    nxt.append(e2)
                cover_sets[e].add(e2)
        frontier = nxt
    elements = sorted(configs, key=_graded)
    covers = {e: sorted(cover_sets[e], key=_graded) for e in elements}
    coefficients = {e: 2 ** count_cycles(config) for e, config in configs.items()}
    return elements, excluded, covers, coefficients


# The most seeds ``enumerate_cluster_variables`` visits; rank 6 has 672.
SEED_BUDGET = 100_000


def _poly_key(poly):
    return tuple(sorted(poly.terms.items()))


def _canonical_seed_key(seed):
    """Seed key invariant under simultaneous relabeling of cluster positions.

    Relabeling permutes cluster entries, the matrix columns, and the top rows
    (the bottom rows are pinned to y0..y{n-1}).  Cluster entries in one seed
    are pairwise distinct, so sorting them fixes a unique permutation.
    """
    n = seed.n
    perm = sorted(range(n), key=lambda i: _poly_key(seed.cluster[i]))
    ext = seed.ext
    top = tuple(tuple(ext[i][j] for j in perm) for i in perm)
    bottom = tuple(tuple(row[j] for j in perm) for row in ext[n:])
    cluster_key = tuple(_poly_key(seed.cluster[i]) for i in perm)
    return cluster_key, top, bottom


def enumerate_cluster_variables(quiver):
    """BFS over the whole exchange graph; returns (atlas, seed_count).

    The atlas maps denominator vectors of non-initial variables to Laurent
    expansions.  Visiting more than SEED_BUDGET distinct seeds raises,
    because these enumerations are meant to be exhaustive.
    """
    n = quiver.n
    start = initial_seed(quiver)
    seen = {_canonical_seed_key(start)}
    frontier = [start]
    atlas = {}
    while frontier:
        nxt = []
        for seed in frontier:
            for k in range(n):
                neighbor = mutate_seed(seed, k)
                key = _canonical_seed_key(neighbor)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > SEED_BUDGET:
                    raise RuntimeError("seed budget %d exceeded" % SEED_BUDGET)
                d = denominator_vector(neighbor.cluster[k], n)
                if any(x > 0 for x in d) and d not in atlas:
                    atlas[d] = neighbor.cluster[k]
                nxt.append(neighbor)
        frontier = nxt
    return atlas, len(seen)


def mirror_atlas(atlas, n):
    """The atlas of σQ from Q's ``walk_cluster_variables`` atlas, σ the tip
    swap n - 2 <-> n - 1: each variable keyed by d goes to the key σd, with
    x_{n-2}, x_{n-1} and y_{n-2}, y_{n-1} exchanged."""
    a, b = n - 2, n - 1
    ctx = xy_context(n)
    mirrored = {}
    for d, poly in atlas.items():
        terms = {
            e[:a] + (e[b], e[a]) + e[n : n + a] + (e[n + b], e[n + a]): c
            for e, c in poly.terms.items()
        }
        mirrored[d[:a] + (d[b], d[a])] = LaurentPolynomial._build(ctx, terms)
    return mirrored


def reversed_atlas(atlas, n):
    """The atlas of ρQ = Q^op from Q's ``walk_cluster_variables`` atlas: the
    variable keyed by d is Q's with each term's y^b replaced by y^(d-b) and
    its x-part unchanged (the keys stay)."""
    ctx = xy_context(n)
    reversed_ = {}
    for d, poly in atlas.items():
        terms = {e[:n] + tuple(map(operator.sub, d, e[n:])): c for e, c in poly.terms.items()}
        reversed_[d] = LaurentPolynomial._build(ctx, terms)
    return reversed_


def mutate_ext_by_entries(ext, k):
    """Matrix mutation at column/row k, applied to all 2n rows.

    ``b'_ij = -b_ij`` if i or j is k, else ``b_ij + sgn(b_ik) max(b_ik b_kj, 0)``.
    """
    row_k = ext[k]
    out = []
    for i, row in enumerate(ext):
        bik = row[k]
        if i == k:
            row = tuple(-b for b in row)
        elif bik:
            s = 1 if bik > 0 else -1
            row = tuple(
                -b if j == k else b + s * max(bik * bkj, 0)
                for j, (b, bkj) in enumerate(zip(row, row_k))
            )
        out.append(row)
    return tuple(out)


def mutate_seed_by_variables(seed, k):
    n = seed.n
    ctx = seed.cluster[0].context
    plus = minus = LaurentPolynomial.monomial(ctx, (0,) * len(ctx))
    for i in range(2 * n):
        m = seed.ext[i][k]
        if not m:
            continue
        if i < n:
            gen = seed.cluster[i]
        else:
            gen = LaurentPolynomial.variable(ctx, "y%d" % (i - n))
        # |m| is 1 in the top block and at most 2 in the bottom one
        for _ in range(m):
            plus = plus * gen
        for _ in range(-m):
            minus = minus * gen
    new_var = divide_exact(plus + minus, seed.cluster[k])
    cluster = list(seed.cluster)
    cluster[k] = new_var
    return Seed(cluster, mutate_ext_by_entries(seed.ext, k))


def verify_root_by_extraction(poset, oracles, atlas):
    """The report of ``verify_root``, with the mutation oracle's F and g read
    off its expansion before the expansions are compared."""
    quiver, d = poset.quiver, poset.d
    n = quiver.n
    f, g = dimer_invariants(poset)
    report = {
        "quiver": format_quiver(quiver),
        "root": d,
        "roundtrip": True,
        "oracles": {},
        "ok": True,
    }
    for name in oracles:
        if name == "tran":
            of, og, ol = tran_f_polynomial(quiver, d), tran_g_vector(quiver, d), None
            laurent_match = of == f and og == g
        else:
            ol = atlas[d]
            of = f_polynomial_from_expansion(ol, n)
            og = g_vector_from_expansion(ol, n)
            laurent_match = ol == expansion_from_f_and_g(quiver, f, g)
        entry = {"f_match": of == f, "g_match": og == g, "laurent_match": laurent_match}
        if not all(entry.values()):
            entry["mismatches"] = _mismatches(quiver, f, g, of, og, ol)
            report["ok"] = False
        report["oracles"][name] = entry
    return report


def is_distributive(poset):
    """x ^ (y v z) == (x ^ y) v (x ^ z) for every triple of a lattice."""
    poset.require_lattice()
    for x in poset.elements:
        for y in poset.elements:
            for z in poset.elements:
                lhs = poset.meet(x, poset.join(y, z))
                rhs = poset.join(poset.meet(x, y), poset.meet(x, z))
                if lhs != rhs:
                    return False
    return True


def arrow_sign(quiver, i, j):
    """+1 if i -> j, -1 if j -> i, 0 if i and j are not adjacent, as
    ``Quiver.arrow_sign`` gave it."""
    if (i, j) in quiver.arrows:
        return 1
    if (j, i) in quiver.arrows:
        return -1
    return 0


def exchange_matrix(quiver):
    """B as a tuple of row tuples, ``b[i][j]`` the ``arrow_sign(i, j)``, as
    ``Quiver.exchange_matrix`` gave it."""
    n = quiver.n
    return tuple(tuple(arrow_sign(quiver, i, j) for j in range(n)) for i in range(n))


def assign_weights_by_records(graph):
    """``weighted_edges`` as ``BaseGraph._assign_weights`` built it before it
    read the free sides off ``flip_deltas``: the side shared with the lowest
    neighbour found by its (tail, head) record, and each free side by a
    search of the records from the last claim of its class."""
    n, plan, arrows = graph.n, graph.closed_form_plan, graph.quiver.arrows
    near = [[] for _ in range(n)]  # each tile's diagram neighbours, ascending
    for u, v in dynkin_edges(n):
        near[u].append(v)
        near[v].append(u)
    labels = {}  # edge -> label, in the order claimed
    for i, deltas in enumerate(graph.flip_deltas):
        first = near[i][0]
        records = [plan[k] for k, _ in deltas]
        start = records.index((i, first) if (i, first) in arrows else (first, i))
        ring = [k for k, _ in deltas[start:] + deltas[:start]]
        records = records[start:] + records[:start]
        claimed = {}  # record -> the ring position after its last claim
        for j in near[i]:
            # a free side is a boundary side: a wb-side, record (n, i),
            # for an arrow i -> j, a bw-side, record (i, n), for j -> i
            free = (n, i) if (i, j) in arrows else (i, n)
            try:
                s = records.index(free, claimed.get(free, 0))
            except ValueError:
                raise AssertionError(
                    "no free %s-side on tile %d for neighbor %d"
                    % (WB if free[0] == n else BW, i, j)
                ) from None
            claimed[free] = s + 1
            labels[ring[s]] = j
    return tuple(labels.items())


def _hexagon_corners_by_branch(cell, horizontal):
    a, b = cell
    if horizontal:
        # cells (a,b),(a+1,b); clockwise from the lower-left corner
        return [(a, b), (a, b + 1), (a + 1, b + 1), (a + 2, b + 1), (a + 2, b), (a + 1, b)]
    # cells (a,b),(a,b+1)
    return [(a, b), (a, b + 1), (a, b + 2), (a + 1, b + 2), (a + 1, b + 1), (a + 1, b)]


def build_tiles_by_candidates(graph):
    """(tiles, directions) as ``BaseGraph._build_tiles`` built them before it
    laid the tiles out from the staircase steps and the brick's sides: the
    step into each tile i = 1..n-3 (entry 0 None), the brick's corners in one
    list per direction, and each fork tile's cell from a table of (brick
    side, outward cell) candidates per direction."""
    n = graph.n
    arrows = graph.quiver.arrows
    dirs = [None, EAST]
    for i in range(2, n - 2):
        prev = dirs[-1]
        if ((i - 2, i - 1) in arrows) == ((i - 1, i) in arrows):
            prev = NORTH if prev == EAST else EAST
        dirs.append(prev)
    cells = [(0, 0)]
    for dx, dy in dirs[1 : n - 3]:
        a, b = cells[-1]
        cells.append((a + dx, b + dy))
    tiles = [Tile(i, "square", [c], _square_corners(c)) for i, c in enumerate(cells)]

    # the branch tile: a 2x1 brick entered by the final staircase step
    hex_dir = dirs[n - 3]
    last = cells[-1]
    h0 = (last[0] + hex_dir[0], last[1] + hex_dir[1])
    horizontal = hex_dir == EAST
    h1 = (h0[0] + 1, h0[1]) if horizontal else (h0[0], h0[1] + 1)
    hexagon = Tile(n - 3, "hexagon", [h0, h1], _hexagon_corners_by_branch(h0, horizontal))
    tiles.append(hexagon)

    # fork tiles sit across hexagon sides chosen by arrow compatibility:
    # candidate (side index, outward cell) pairs, one pair per fork tile
    a, b = h0
    if horizontal:
        candidates = {
            n - 2: [(1, (a, b + 1)), (2, (a + 1, b + 1))],  # upper-left, upper-right
            n - 1: [(3, (a + 2, b)), (4, (a + 1, b - 1))],  # right, lower-right
        }
    else:
        candidates = {
            n - 2: [(1, (a - 1, b + 1)), (2, (a, b + 2))],  # west-high, north
            n - 1: [(3, (a + 1, b + 1)), (4, (a + 1, b))],  # east-high, east-low
        }
    hex_sides = hexagon.sides
    for t in (n - 2, n - 1):
        # class w.r.t. the brick (arrow tail: bw)
        needed = BW if (n - 3, t) in arrows else WB
        chosen = None
        for side_index, cell in candidates[t]:
            if graph.side_class(*hex_sides[side_index]) == needed:
                chosen = cell
                break
        if chosen is None:  # the two candidates have opposite classes
            raise AssertionError("no compatible brick side for fork tile %d" % t)
        tiles.append(Tile(t, "square", [chosen], _square_corners(chosen)))
    return tiles, dirs


def green_nodes_by_cases(tiles, dirs, d):
    """``BaseGraph.green_nodes`` as it read the tiles and steps of
    ``build_tiles_by_candidates``, with the first doubled coordinate at 1 a
    case of its own, before tile 0 counted as entered straight."""
    doubled = [i for i, x in enumerate(d) if x == 2]
    if not doubled:
        return frozenset()
    j = min(doubled)
    if j == 1:
        drop = set(tiles[1].corners)
        return frozenset(v for v in tiles[0].corners if v not in drop)
    if dirs[j - 1] == dirs[j]:  # straight: the side facing away from tile j
        drop = set(tiles[j].corners)
        return frozenset(v for v in tiles[j - 1].corners if v not in drop)
    # zig-zag: the end of the (j-2, j-1) shared edge that avoids tile j, plus
    # its diagonal opposite within tile j-2
    shared = set(tiles[j - 2].corners) & set(tiles[j - 1].corners)
    away = shared - set(tiles[j].corners)
    if len(away) != 1:
        raise AssertionError("zig-zag at %d has no unique corner away from tile j" % j)
    (y,) = away
    (a, b) = tiles[j - 2].cells[0]
    z = (2 * a + 1 - y[0], 2 * b + 1 - y[1])
    return frozenset({y, z})


def topological_order_by_kahn(quiver):
    """Every arrow tail before its head, by Kahn's loop: the ready vertices
    sorted after each step and the smallest taken first."""
    indeg = {v: 0 for v in range(quiver.n)}
    for _, h in quiver.arrows:
        indeg[h] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for h in sorted(h for t, h in quiver.arrows if t == v):
            indeg[h] -= 1
            if indeg[h] == 0:
                ready.append(h)
        ready.sort()
    return order


def bound_by_walk(poset, masks, u, v):
    """The element whose mask (``down`` for a meet, ``up`` for a join) is
    the common mask of u and v, found by walking that mask from its lowest
    bit; None when there is none."""
    index = poset._order[0]
    common = masks[index[tuple(u)]] & masks[index[tuple(v)]]
    k = common
    while k:
        low = (k & -k).bit_length() - 1
        if masks[low] == common:
            return poset.elements[low]
        k &= k - 1
    return None


def config_valences(config):
    val = {}
    for (p, q), m in config.items():
        val[p] = val.get(p, 0) + m
        val[q] = val.get(q, 0) + m
    return val


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


def e_from_config_by_peel(graph, d, config):
    """Recover the exponent vector by peeling cycles off config + minimal.

    Inverse of config_from_e; raises ValueError if the multiset is not a
    valid configuration for the root (the peeled vector's closed form must
    give it back), if a key is not an edge of the graph, or if a
    multiplicity is negative.
    """
    for edge, m in config.items():
        if edge not in graph.edge_index:
            raise ValueError("%r is not an edge of the base graph" % (edge,))
        if m < 0:
            raise ValueError("edge %r has negative multiplicity %d" % (edge, m))
    total = add_configs(config, as_dict(graph, minimal_matching(graph, d)))
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
        closed = as_dict(graph, config_from_e(graph, d, e))
    except ValueError:
        closed = None
    if closed != {edge: m for edge, m in config.items() if m}:
        raise ValueError("not the configuration of the peeled exponent vector %r" % (e,))
    return e


def boundary_sides(graph):
    """(edge, is_wb) for the first boundary side of each tile clockwise,
    whose multiplicity is e_i on a wb-side and d_i - e_i on a bw-side; every
    tile has one.  ``BaseGraph._plan`` built this table until the flip poset
    stopped reading configurations back (``e_from_config``)."""
    n = graph.n
    index, plan = graph.edge_index, graph.closed_form_plan
    sides = [[index[e] for e in tile.edges] for tile in graph.tiles]
    boundary = []
    for i, ks in enumerate(sides):
        k = next((k for k in ks if n in plan[k]), None)
        if k is None:
            raise AssertionError("tile %d has no boundary side" % i)
        boundary.append((k, plan[k][1] == i))
    return tuple(boundary)


def e_from_config(graph, d, config):
    """Read the exponent vector off one boundary side per tile.

    Inverse of config_from_e: e_i is the multiplicity of the tile's boundary
    side (``boundary_sides``) on a wb-side, d_i minus it on a bw-side.
    A configuration equal to the closed form of that vector is returned at
    once.  Otherwise raises ValueError: if config is not a tuple with one
    multiplicity per edge, if a multiplicity is negative, or if the tuple is
    not the configuration of the vector read this way (its closed form must
    give the input back).
    """
    e = None
    try:
        e = tuple([
            config[k] if is_wb else d[i] - config[k]
            for i, (k, is_wb) in enumerate(boundary_sides(graph))
        ])
        if config_from_e(graph, d, e) == config:
            return e
    except (LookupError, TypeError, ValueError):  # malformed input, or e unrealizable
        pass
    if type(config) is not tuple or len(config) != len(graph.edges):
        raise ValueError(
            "a configuration is a tuple of %d multiplicities, one per edge"
            % len(graph.edges)
        )
    for edge, m in zip(graph.edges, config):
        if m < 0:
            raise ValueError("edge %r has negative multiplicity %d" % (edge, m))
    raise ValueError("not the configuration of its boundary height %r" % (e,))


def flip_poset_by_read_back(graph, d):
    """(elements, excluded, coefficients, weights) of the flip poset, by the
    breadth-first build that read every configuration back to its own e
    (``e_from_config``) and weighed every element (``x_exponents``)."""
    n = graph.n
    labels = graph.node_labels(d)
    marks = [labels.get(v) for v in graph.corners]

    def reads_back(config, e):
        try:
            return e_from_config(graph, d, config) == e
        except ValueError:
            return False
    bottom = (0,) * n
    start = minimal_matching(graph, d)
    if not reads_back(start, bottom):
        raise AssertionError("minimal matching disagrees with the closed form")
    monochromatic, cycles = support_summary_by_incidence(graph, start, marks)
    if not monochromatic:
        raise AssertionError("minimal matching joins marked corners")
    coefficients = {bottom: 2 ** cycles}
    weights = {bottom: x_exponents(graph, start)}
    excluded = set()
    frontier = {bottom: start}
    while frontier:
        nxt = {}
        for e, config in frontier.items():
            for i in range(n):
                if not is_flippable(graph, d, config, i):
                    continue
                e2 = e[:i] + (e[i] + 1,) + e[i + 1 :]
                if e2 in excluded or e2 in weights:
                    continue
                config2 = flip(graph, config, i)
                # one read-back checks the flip and the roundtrip
                if not reads_back(config2, e2):
                    raise AssertionError(
                        "flip at %d from %r disagrees with the closed form" % (i, e)
                    )
                monochromatic, cycles = support_summary_by_incidence(graph, config2, marks)
                if not monochromatic:
                    excluded.add(e2)
                    continue
                coefficients[e2] = 2 ** cycles
                weights[e2] = x_exponents(graph, config2)
                nxt[e2] = config2
        frontier = nxt
    return sorted(weights, key=lambda e: (sum(e), e)), excluded, coefficients, weights


class FrozenTables:
    """The per-graph tables of a base graph as ``BaseGraph`` built them
    before its one per-edge record: the corner set ``vertices``, the tiles of
    every edge ``edge_tiles``, a class per (edge, tile) and the shared edge
    of every adjacent pair, each re-derived by ``_plan``.  The methods are
    the package's, unchanged; the tiles, the coloring and the quiver come
    from ``graph``.
    """

    def __init__(self, graph):
        self.quiver = graph.quiver
        self.n = graph.n
        self.tiles = graph.tiles
        self.side_class = graph.side_class
        self._index_edges()
        self._validate()
        self._assign_weights()
        self._plan()

    def edge_class(self, edge, tile_index):
        return self._edge_class[(edge, tile_index)]

    def _index_edges(self):
        self.vertices = set()
        self.edge_tiles = {}
        self._edge_class = {}
        for tile in self.tiles:
            for p, q in tile.sides:
                self.vertices.add(p)
                self.vertices.add(q)
                e = edge_key(p, q)
                self.edge_tiles.setdefault(e, []).append(tile.index)
                self._edge_class[(e, tile.index)] = self.side_class(p, q)
        self.edges = sorted(self.edge_tiles)

    def _validate(self):
        n = self.n
        if len(self.vertices) != 2 * n + 4:
            raise AssertionError(
                "expected %d corners, built %d" % (2 * n + 4, len(self.vertices))
            )
        # tiles sharing an edge must be exactly the diagram adjacencies
        shared = {}
        for e, tiles in self.edge_tiles.items():
            if len(tiles) > 2:
                raise AssertionError("edge %r lies on %d tiles" % (e, len(tiles)))
            if len(tiles) == 2:
                pair = tuple(sorted(tiles))
                if pair in shared:
                    raise AssertionError("tiles %r share two edges" % (pair,))
                shared[pair] = e
        diagram = {tuple(sorted(a)) for a in self.quiver.arrows}
        if set(shared) != diagram:
            raise AssertionError(
                "tile adjacencies %s do not match the diagram %s"
                % (sorted(shared), sorted(diagram))
            )
        self._shared = shared
        # the defining class compatibility: arrow i -> j meets its shared edge
        # as a bw-side of tile i and a wb-side of tile j
        for t, h in self.quiver.arrows:
            e = shared[tuple(sorted((t, h)))]
            if self.edge_class(e, t) != BW or self.edge_class(e, h) != WB:
                raise AssertionError("arrow %d->%d violates side classes" % (t, h))

    def shared_edge(self, i, j):
        return self._shared[tuple(sorted((i, j)))]

    def _plan(self):
        """Per-graph tables that configurations are read and built with.

        A configuration is a tuple of multiplicities indexed like ``edges``;
        every table below names an edge by its position there
        (``edge_index``) and a corner by its position in ``corners``.
        ``incidence[c]``: (edge, other corner) for every edge at corner c.
        ``bw_sides[i]``: the bw-sides of tile i, all present in a
        configuration that can flip at i.  ``flip_deltas[i]``: (edge, -1) for
        every bw-side and (edge, +1) for every wb-side of tile i.
        ``closed_form_plan[k]``: (tail, head), edge k being a bw-side of tile
        tail and a wb-side of tile head; on a boundary edge the missing tile
        is the outer face, index n.  ``boundary_sides[i]``: (edge, is_wb) for
        one boundary side of tile i, whose multiplicity is e_i on a wb-side
        and d_i - e_i on a bw-side; every tile has one.
        ``weighted_edges``: (edge, label) for every labeled edge.
        """
        n = self.n
        index = self.edge_index = {e: k for k, e in enumerate(self.edges)}
        self.corners = sorted(self.vertices)
        corner = {v: c for c, v in enumerate(self.corners)}
        incidence = [[] for _ in self.corners]
        for k, (p, q) in enumerate(self.edges):
            incidence[corner[p]].append((k, corner[q]))
            incidence[corner[q]].append((k, corner[p]))
        self.incidence = tuple(map(tuple, incidence))
        classes = [
            [(index[e], self._edge_class[(e, tile.index)] == BW) for e in tile.edges]
            for tile in self.tiles
        ]
        self.bw_sides = tuple(tuple(k for k, bw in sides if bw) for sides in classes)
        self.flip_deltas = tuple(
            tuple((k, -1 if bw else 1) for k, bw in sides) for sides in classes
        )
        plan = []
        for e in self.edges:
            ends = {self._edge_class[(e, i)]: i for i in self.edge_tiles[e]}
            plan.append((ends.get(BW, n), ends.get(WB, n)))
        self.closed_form_plan = tuple(plan)
        sides = []
        for tile in self.tiles:
            boundary = [e for e in tile.edges if len(self.edge_tiles[e]) == 1]
            if not boundary:
                raise AssertionError("tile %d has no boundary side" % tile.index)
            sides.append((index[boundary[0]], self._edge_class[(boundary[0], tile.index)] == WB))
        self.boundary_sides = tuple(sides)
        self.weighted_edges = tuple(
            (index[e], label) for e, label in self.edge_weights.items()
        )

    def _assign_weights(self):
        weights = {}
        for tile in self.tiles:
            i = tile.index
            neighbors = sorted(
                j for edge in dynkin_edges(self.n) if i in edge for j in edge if j != i
            )
            if not neighbors:
                continue
            start_edge = self.shared_edge(i, neighbors[0])
            tile_edges = tile.edges
            start = tile_edges.index(start_edge)
            ring = tile_edges[start:] + tile_edges[:start]
            for j in neighbors:
                needed = WB if arrow_sign(self.quiver, i, j) == 1 else BW
                for e in ring:
                    if len(self.edge_tiles[e]) != 1:
                        continue
                    if self._edge_class[(e, i)] != needed or e in weights:
                        continue
                    weights[e] = j
                    break
                else:
                    raise AssertionError(
                        "no free %s-side on tile %d for neighbor %d" % (needed, i, j)
                    )
        self.edge_weights = weights
