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
parent, and the components of S are runs of S along parent edges).  A walk
along the indices extends only the vectors that pass the box and every
arrow, scoring each prefix e as (c, k) on the way: c is the charge of the
last component of S opened (-1 before any) and k the number closed
uncharged.  ``_RULES`` states every condition once, as a move table: for
the edge (u, v), each e_u and c give the moves (e_v, c', closed) over the
e_v that the box and the arrow leave, closed being 1 when the edge closes
an uncharged component, and a move that would charge a component twice is
left out.  This is exact: the tips 0, n - 2 and n - 1 have d <= 1, so S's
components are runs along the path 0..n-3, and each edge's u is the last
path vertex the walk has reached, so no edge charges a component once a
later one opens.  An edge into a vertex with d_v = 0 has the one move
e_v = 0 and charges nothing, so both walks take only the parent edges into
r + 1 .. top, r and top the root's lowest and highest support vertices.
``tran_f_polynomial`` lists every prefix; ``poset_size`` counts the vectors
of nonzero coefficient, the flip poset's elements, without listing them,
with the prefixes that agree on c and on e of the last path vertex counted
together (a transfer count, Stanley, *EC1* §4.7).

The g-vector is read off the root and the orientation alone: each arrow
t -> h contributes d_h to coordinate t on top of -d.
"""

from __future__ import annotations

import itertools

from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.quiver_core import check_root, dynkin_edges


def _rule(du, dv, forward):
    """The moves (e_v, c', closed) of a prefix with e_u = x and charge c
    over the parent edge (u, v), as ``rule[x][c]`` (c = -1 the last entry),
    for the e_v in [0, d_v] that the arrow u -> v (forward) or v -> u
    allows: e_t - e_h <= max(d_t - d_h, 0).  v opening its own component
    of S (charged by a critical arrow) closes the open one; a critical
    arrow otherwise charges the open one, u's, which must be uncharged (an
    arrow inside S is never critical)."""
    rule = [([], [], []) for _ in range(du + 1)]
    for x, y in itertools.product(range(du + 1), range(dv + 1)):
        (dt, et), (dh, eh) = ((du, x), (dv, y))[:: 1 if forward else -1]
        if et - eh > max(dt - dh, 0):
            continue
        critical = ((dt, et), (dh, eh)) in (((2, 1), (1, 0)), ((1, 1), (2, 1)))
        opens = (dv, y) == (2, 1) != (du, x)  # v joining u's component keeps c
        for c in (-1, 0, 1):
            if opens:
                rule[x][c].append((y, int(critical), int(c == 0)))
            elif not critical:
                rule[x][c].append((y, c, 0))
            elif c == 0:
                rule[x][c].append((y, 1, 0))
    return tuple(tuple(map(tuple, row)) for row in rule)


# keyed by (d_u, d_v, u -> v)
_RULES = {key: _rule(*key) for key in itertools.product(range(3), range(3), (True, False))}


def _support_steps(quiver, d):
    """r, top and (u, v, rule) for each parent edge (u, v) into r + 1 .. top,
    r and top the lowest and highest vertices of the root's support: a
    positive root's first and last nonzero entries are 1s."""
    r, top = d.index(1), len(d) - 1 - d[::-1].index(1)
    edges = dynkin_edges(quiver.n)[r:top]
    return r, top, [(u, v, _RULES[d[u], d[v], (u, v) in quiver.arrows]) for u, v in edges]


def poset_size(quiver, d):
    """Number of e with nonzero coefficient, the flip poset's size, after the
    O(n) root check: the walk of ``tran_f_polynomial``, with the prefixes
    that agree on c and on e of the last path vertex reached counted
    together (a tip edge keeps that vertex)."""
    d = check_root(quiver, d)
    r, _, steps = _support_steps(quiver, d)
    ways = {(x, -1): 1 for x in range(d[r] + 1)}
    for _, v, rule in steps:
        path = v < quiver.n - 2
        counted = {}
        for (x, c), w in ways.items():
            for y, charge, _ in rule[x][c]:
                key = (y if path else x, charge)
                counted[key] = counted.get(key, 0) + w
        ways = counted
    return sum(ways.values())


def tran_f_polynomial(quiver, d):
    """The sum of coefficient(e) * u^e over the vectors in the box that pass
    every arrow inequality: each prefix (e, c, k) of the support's entries
    from r is extended edge by edge through its moves, and a full vector,
    padded with zeros outside [r, top], scores 2^(k + [c = 0])."""
    d = check_root(quiver, d)
    r, top, steps = _support_steps(quiver, d)
    prefixes = [((x,), -1, 0) for x in range(d[r] + 1)]
    for u, _, rule in steps:
        prefixes = [
            (e + (y,), charge, k + closed)
            for e, c, k in prefixes
            for y, charge, closed in rule[e[u - r]][c]
        ]
    low, high = (0,) * r, (0,) * (quiver.n - 1 - top)
    terms = {low + e + high: 2 ** (k + (c == 0)) for e, c, k in prefixes}
    return LaurentPolynomial._build(u_context(quiver.n), terms)


def tran_g_vector(quiver, d):
    d = check_root(quiver, d)
    g = [-x for x in d]
    for t, h in quiver.arrows:
        g[t] += d[h]
    return tuple(g)
