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
tip n - 1), and the parent edges (u, v) are ``dynkin_edges(n)``, in order,
so every arrow lies on one of them.  Each arrow inequality involves a vertex
and its parent, so the vectors that pass the box and every arrow are
enumerated by a walk along the indices: given e_u the arrow between u and v
leaves an interval of e_v, e_v >= e_u - max(d_u - d_v, 0) for u -> v and
e_v <= e_u + max(d_v - d_u, 0) for v -> u.  Cut to
[0, d_v] that interval is never empty (e_v = d_v fits u -> v and e_v = 0
fits v -> u), so the walk never dead-ends and visits only those vectors.
Each one is scored by a pass over the same parent edges, whose arrow
directions are fixed once per instance: the components of S are the runs of
S joined by parent edges, and every critical arrow is a parent edge.  The
intervals, as transfer tables multiplied back over the root's support, also
count the vectors without listing them (``arrow_valid_count``).

The g-vector is read off the root and the orientation alone: each arrow
t -> h contributes d_h to coordinate t on top of -d.
"""

from __future__ import annotations

from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.quiver_core import check_root, dynkin_edges


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


def tran_f_polynomial(quiver, d):
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


def tran_g_vector(quiver, d):
    d = check_root(quiver, d)
    g = [-x for x in d]
    for t, h in quiver.arrows:
        g[t] += d[h]
    return tuple(g)
