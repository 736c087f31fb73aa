"""Cluster variables by direct seed mutation with principal coefficients.

This module is one of two independent routes to every F-polynomial, g-vector,
and Laurent expansion in the package; it never consults the dimer model.

A seed holds the current cluster (n Laurent polynomials in the initial
variables ``x0..x{n-1}`` and coefficients ``y0..y{n-1}``) together with the
extended exchange matrix: a ``2n x n`` integer matrix whose top square block
describes the current quiver and whose bottom block tracks coefficients
(initially the identity).  The top block of the *initial* seed is chosen so
that mutating at a sink ``k`` of the quiver produces
``(y_k + prod_{j->k} x_j) / x_k``; with the package-wide sign convention
``b[i][j] = +1 for i -> j`` that means the top block starts as ``-B``.
Mutating at k divides the exchange binomial by the k-th cluster entry.  Each
side of the binomial is one y-monomial, built straight from the bottom block
of column k, times the product of the cluster entries that the top block of
column k puts on that side, the i-th taken |b_ik| times; a mutation makes one
product per cluster factor.

Extraction of invariants from a Laurent expansion ``L`` is
convention-independent: the g-vector is the x-exponent of the unique
coefficient-free term (y-part zero), and the F-polynomial is ``L`` with every
``x_i`` set to 1.  The converse, ``expansion_from_f_and_g``, relabels each
term of F into one term of ``L``; the dimer model and the closed-form oracle
use it too.

The cluster variables come from ``walk_cluster_variables``, repeated source
sweeps that touch O(n^2) seeds.  The breadth-first search over the whole
exchange graph, which the walk is checked against at ranks 4-6, is a
test reference (``tests/reference.py``), not part of the package.
``moved_atlas`` reads the atlas of any member of a quiver's ⟨σ, ρ⟩ orbit
(``Quiver.orbit``) off the quiver's walk.
"""

from __future__ import annotations

import operator

from dimercluster.laurent_poly import (
    ContextError,
    LaurentPolynomial,
    divide_exact,
    u_context,
    xy_context,
)
from dimercluster.quiver_core import is_positive_root


class Seed:
    __slots__ = ("cluster", "ext")

    def __init__(self, cluster, ext):
        self.cluster = tuple(cluster)
        self.ext = ext  # 2n row tuples of n ints each

    @property
    def n(self):
        return len(self.cluster)


def initial_seed(quiver):
    n = quiver.n
    ctx = xy_context(n)
    cluster = [LaurentPolynomial.variable(ctx, "x%d" % i) for i in range(n)]
    ext = [[0] * n for _ in range(n)] + [[int(i == j) for j in range(n)] for i in range(n)]
    for t, h in quiver.arrows:  # the top block is -B
        ext[t][h], ext[h][t] = -1, 1
    return Seed(cluster, tuple(map(tuple, ext)))


def mutate_ext(ext, k):
    """Matrix mutation at column/row k, applied to all 2n rows.

    ``b'_ij = -b_ij`` if i or j is k, else ``b_ij + sgn(b_ik) max(b_ik b_kj, 0)``:
    row i adds |b_ik| times row k's positive part when b_ik > 0, and times
    its negative part when b_ik < 0.  Both parts are 0 at k, since b_kk = 0.
    """
    row_k = ext[k]
    positive = [b if b > 0 else 0 for b in row_k]
    negative = [b if b < 0 else 0 for b in row_k]
    out = []
    for i, row in enumerate(ext):
        bik = row[k]
        if i == k:
            row = tuple(-b for b in row)
        elif bik:
            part, m = (positive, bik) if bik > 0 else (negative, -bik)
            row = [b + m * p for b, p in zip(row, part)]
            row[k] = -bik
            row = tuple(row)
        out.append(row)
    return tuple(out)


def mutate_seed(seed, k):
    """The seed mutated at k: the exchange binomial, one y-monomial times
    cluster factors on each side, divided by the cluster's k-th entry."""
    n = seed.n
    ext, cluster = seed.ext, seed.cluster
    sides = []
    for sign in (1, -1):
        y = tuple(max(sign * row[k], 0) for row in ext[n:])
        side = LaurentPolynomial.monomial(cluster[0].context, (0,) * n + y)
        for i in range(n):
            for _ in range(sign * ext[i][k]):  # |b_ik| is 1 in the top block
                side = side * cluster[i]
        sides.append(side)
    new_var = divide_exact(sides[0] + sides[1], cluster[k])
    cluster = list(cluster)
    cluster[k] = new_var
    return Seed(cluster, mutate_ext(ext, k))


# ---- invariant extraction ---------------------------------------------------


def f_polynomial_from_expansion(expansion, n):
    """Specialize x -> 1 and read the result as a polynomial in u0..u{n-1}."""
    terms = {}
    for exps, coeff in expansion.terms.items():
        yexp = exps[n:]
        terms[yexp] = terms.get(yexp, 0) + coeff
    f = LaurentPolynomial(u_context(n), terms)
    if f.coefficient((0,) * n) != 1:
        raise ValueError("expansion has no unit constant term; not a cluster variable?")
    return f


def g_vector_from_expansion(expansion, n):
    """x-exponent of the unique term carrying no coefficient variables."""
    hits = [exps for exps in expansion.terms if not any(exps[n:])]
    if len(hits) != 1 or expansion.terms[hits[0]] != 1:
        raise ValueError("expansion lacks a unique unit y-free term")
    return hits[0][:n]


def denominator_vector(expansion, n):
    """Componentwise denominator exponents of the x-part."""
    mins = expansion.min_exponents()[:n]
    return tuple(-m for m in mins)


def expansion_from_f_and_g(quiver, f_poly, g_vec):
    """x^g * F(ŷ), the converse of the two extractors above, term by term.

    ŷ_i = y_i * prod_{i->j} x_j / prod_{j->i} x_j is a monomial; let column i
    of Ŷ hold its x-exponents.  The term c * u^e of F then becomes the one
    term c * x^(g + Ŷe) * y^e, and as its y-part is e itself, no two terms
    meet (the separation formula).  No polynomial arithmetic is involved,
    and F's terms are nonzero and of width n, so none is re-validated.
    ContextError unless F lives in ``u_context(n)``, ValueError unless g has
    n entries.
    """
    n = quiver.n
    if f_poly.context != u_context(n):
        raise ContextError("F must live in u_context(%d), not %r" % (n, f_poly.context))
    if len(g_vec) != n:
        raise ValueError("g must have %d entries, not %d" % (n, len(g_vec)))
    terms = {}
    for e, c in f_poly.terms.items():
        x = list(g_vec)
        for t, h in quiver.arrows:
            x[h] += e[t]
            x[t] -= e[h]
        terms[tuple(x) + e] = c
    return LaurentPolynomial._build(xy_context(n), terms)


# ---- source-sweep walk ------------------------------------------------------


def walk_cluster_variables(quiver):
    """All non-initial cluster variables, keyed by denominator vector.

    Mutates along the topological order of the quiver (every vertex is a
    source of the current quiver when its turn comes, and a full sweep
    restores the original tree orientation), sweeping repeatedly (at most
    4n + 4 times) and returning at the mutation that finds the n(n - 1)-th
    denominator vector.  This touches O(n^2) seeds instead of the full
    exchange graph, which matters for the exhaustive cross-checks.
    """
    n = quiver.n
    order = quiver.topological_order()
    expected = n * (n - 1)
    atlas = {}
    seed = initial_seed(quiver)
    for _ in range(4 * n + 4):
        for k in order:
            seed = mutate_seed(seed, k)
            d = denominator_vector(seed.cluster[k], n)
            if any(x > 0 for x in d) and d not in atlas:
                atlas[d] = seed.cluster[k]
                if len(atlas) == expected:
                    stray = [d for d in atlas if not is_positive_root(n, d)]
                    if stray:
                        raise RuntimeError(
                            "denominator vectors outside the root system: %s" % stray
                        )
                    return atlas
    raise RuntimeError("sweep walk found %d of %d variables" % (len(atlas), expected))


def moved_atlas(atlas, n, swap, reverse):
    """The atlas of Q's ``Quiver.orbit`` member with these moves, read off
    Q's ``walk_cluster_variables`` atlas without a second walk; Q's own
    (no move) is the atlas itself.  σ, the tip swap n - 2 <-> n - 1, is an
    automorphism of the diagram carrying Q's initial seed to σQ's, so it
    carries the variable keyed by d to σQ's keyed by σd, with x_{n-2},
    x_{n-1} and y_{n-2}, y_{n-1} exchanged.  ρ reverses every arrow: the
    representations of ρQ = Q^op are the duals of Q's and
    Gr_e(DM) ≅ Gr_{d-e}(M), F being the generating function of the quiver
    Grassmannians, so the variable keyed by d keeps its key and x-part and
    has each y^b replaced by y^(d-b).  σρ does both in one pass.  Only
    exponent positions move, so no term is validated again."""
    if not (swap or reverse):
        return atlas
    a, b = n - 2, n - 1
    ctx = xy_context(n)
    moved = {}
    for d, poly in atlas.items():
        if swap:
            d = d[:a] + (d[b], d[a])
        terms = {}
        for e, c in poly.terms.items():
            if swap:
                e = e[:a] + (e[b], e[a]) + e[n : n + a] + (e[n + b], e[n + a])
            if reverse:  # y^b -> y^(d-b), d the key as moved
                e = e[:n] + tuple(map(operator.sub, d, e[n:]))
            terms[e] = c
        moved[d] = LaurentPolynomial._build(ctx, terms)
    return moved
