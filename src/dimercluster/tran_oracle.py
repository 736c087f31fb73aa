"""Closed-form F-polynomials and g-vectors from exponent-vector conditions.

Second of the two independent verification routes.  For an orientation Q of
the rank-n diagram and a positive root d, the F-polynomial is a sum of
monomials u^e over *acceptable* exponent vectors e, each weighted by a power
of two determined by local patterns around the entries with d_i = 2:

* box: 0 <= e_i <= d_i for every vertex;
* per arrow i -> j: e_i - e_j <= max(d_i - d_j, 0);
* let S = {i : (d_i, e_i) = (2, 1)}.  An arrow is *critical* if it matches
  (d, e): (2,1) -> (1,0) or (1,1) -> (2,1); each critical arrow is charged to
  the connected component (diagram adjacency) of its S-endpoint.  Components
  charged twice or more kill the monomial; the coefficient is 2^(number of
  uncharged components).

The vertex indices are a connected order of the diagram: every vertex
v >= 1 has one earlier neighbour, its parent u (v - 1, or n - 3 for the fork
tip n - 1), and the parent edges (u, v) are ``dynkin_edges(n)``, in order.
Each condition is local to a parent edge (an arrow joins a vertex and its
parent, and the components of S are runs of S along parent edges; d_0 <= 1,
so vertex 0 is never in S), and ``_RULES`` states them once: for the edge
(u, v), each e_u maps every e_v that the box and the arrow leave (never
none) to what the edge does to S's components.  A walk along the indices
visits exactly the vectors that pass the box and every arrow, and a pass
over the same edges scores each.  As transfer tables multiplied back over
the root's support, with the charge (0 or 1) of v's open component as state,
the rules count the vectors of nonzero coefficient, the flip poset's
elements, without listing them (Stanley, *EC1* §4.7).

The g-vector is read off the root and the orientation alone: each arrow
t -> h contributes d_h to coordinate t on top of -d.
"""

from __future__ import annotations

import itertools

from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.quiver_core import check_root, dynkin_edges

# a parent edge (u, v): v off S, charging u's component of S, v joining it,
# v opening its own, or opening it charged by a critical arrow
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


def _steps(quiver, d, edges):
    """(u, v, rule) for each parent edge (u, v) in ``edges``."""
    return [(u, v, _RULES[d[u], d[v], (u, v) in quiver.arrows]) for u, v in edges]


def _coefficient(steps, d, e):
    """Coefficient of u^e for a vector e the tree walk visits: one pass over
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


def poset_size(quiver, d):
    """Number of e with nonzero coefficient, the flip poset's size, after the
    O(n) root check: ways[v][x] counts the assignments to v's subtree with
    e_v = x and no closed component charged twice, as a pair (v's open
    component uncharged, charged once).  A step into a vertex with d_v = 0
    multiplies by 1, so only the parent edges into the support's vertices
    past its lowest one, r, are taken: their parents all lie in it."""
    d = check_root(quiver, d)
    r = next(v for v, x in enumerate(d) if x)
    ways = {v: [(1, 0)] * (d[v] + 1) for v in range(r, quiver.n) if d[v]}
    edges = [(u, v) for u, v in dynkin_edges(quiver.n)[r:] if d[v]]
    for u, v, rule in reversed(_steps(quiver, d, edges)):
        below, table = ways[v], []
        for (a0, a1), kinds in zip(ways[u], rule):
            same = plus = 0  # keeping u's charge, adding one to it
            for y, kind in kinds.items():
                b0, b1 = below[y]
                if kind == _JOIN:
                    same, plus = same + b0, plus + b1
                elif kind == _CHARGE:
                    plus += b0 + b1
                else:  # v's component, if any, closes here
                    same += b0 if kind == _OPEN_CHARGED else b0 + b1
            table.append((a0 * same, a1 * same + a0 * plus))
        ways[u] = table
    return sum(map(sum, ways[r]))


def tran_f_polynomial(quiver, d):
    """The sum of coefficient(e) * u^e over the vectors the tree walk
    visits: those in the box that pass every arrow inequality."""
    d = check_root(quiver, d)
    steps = _steps(quiver, d, dynkin_edges(quiver.n))
    vectors = [(x,) for x in range(d[0] + 1)]
    for u, _, rule in steps:
        vectors = [e + (x,) for e in vectors for x in rule[e[u]]]
    terms = {e: c for e in vectors if (c := _coefficient(steps, d, e))}
    return LaurentPolynomial(u_context(quiver.n), terms)


def tran_g_vector(quiver, d):
    d = check_root(quiver, d)
    g = [-x for x in d]
    for t, h in quiver.arrows:
        g[t] += d[h]
    return tuple(g)
