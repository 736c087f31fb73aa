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
parent, and the components of S are runs of S along parent edges), and
``_RULES`` states them once: for the edge (u, v), each e_u maps every e_v
that the box and the arrow leave (never none) to what the edge does to S's
components.  A walk along the indices extends only the vectors that pass
the box and every arrow, scoring each prefix e as (c, k) on the way: c is
the charge of the last component of S opened (-1 before any) and k the
number closed uncharged.  ``_charge_step`` states what each edge kind does
to (c, k), and drops a prefix once c would pass 1.  This is exact: the
tips 0, n - 2 and n - 1 have d <= 1, so S's components are runs along the
path 0..n-3, and each edge's u is the last path vertex the walk has
reached, so no edge charges a component once a later one opens.  The same
walk over the root's support, with the prefixes that agree on c and on e
of the last path vertex counted together, counts the vectors of nonzero
coefficient, the flip poset's elements, without listing them (a transfer
count, Stanley, *EC1* §4.7).

The g-vector is read off the root and the orientation alone: each arrow
t -> h contributes d_h to coordinate t on top of -d.
"""

from __future__ import annotations

import itertools

from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.quiver_core import check_root, dynkin_edges

# a parent edge (u, v): nothing to S (v off S, or v joining u's component),
# charging u's component, or v opening its own, uncharged or charged by a
# critical arrow
_KEEP, _CHARGE, _OPEN, _OPEN_CHARGED = range(4)


def _rule(du, dv, forward):
    """For each e_u, {e_v: kind} over the e_v in [0, d_v] that the arrow
    u -> v (forward) or v -> u allows: e_t - e_h <= max(d_t - d_h, 0)."""
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
_RULES = {key: _rule(*key) for key in itertools.product(range(3), range(3), (True, False))}


def _steps(quiver, d, edges):
    """(u, v, rule) for each parent edge (u, v) in ``edges``."""
    return [(u, v, _RULES[d[u], d[v], (u, v) in quiver.arrows]) for u, v in edges]


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


def poset_size(quiver, d):
    """Number of e with nonzero coefficient, the flip poset's size, after the
    O(n) root check: the walk of ``tran_f_polynomial``, with the prefixes
    that agree on c and on e of the last path vertex reached counted
    together (a tip edge keeps that vertex).  An edge into a vertex with
    d_v = 0 extends each prefix one way and charges nothing, so only the
    edges into the support's vertices past its lowest one, r, are taken:
    their parents all lie in it."""
    d = check_root(quiver, d)
    r = next(v for v, x in enumerate(d) if x)
    edges = [(u, v) for u, v in dynkin_edges(quiver.n)[r:] if d[v]]
    ways = {(x, -1): 1 for x in range(d[r] + 1)}
    for _, v, rule in _steps(quiver, d, edges):
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


def tran_f_polynomial(quiver, d):
    """The sum of coefficient(e) * u^e over the vectors in the box that pass
    every arrow inequality: each prefix (e, (c, k)) is extended edge by edge
    through ``_charge_step``, and a full vector scores 2^(k + [c = 0])."""
    d = check_root(quiver, d)
    prefixes = [((x,), (-1, 0)) for x in range(d[0] + 1)]
    for u, _, rule in _steps(quiver, d, dynkin_edges(quiver.n)):
        extended = []
        for e, state in prefixes:
            for x, kind in rule[e[u]].items():
                step = _charge_step(state, kind)
                if step:
                    extended.append((e + (x,), step))
        prefixes = extended
    terms = {e: 2 ** (k + (c == 0)) for e, (c, k) in prefixes}
    return LaurentPolynomial._build(u_context(quiver.n), terms)


def tran_g_vector(quiver, d):
    d = check_root(quiver, d)
    g = [-x for x in d]
    for t, h in quiver.arrows:
        g[t] += d[h]
    return tuple(g)
