"""Cluster-variable invariants from the dimer model, with cross-validation.

An instance (quiver, positive root d) is its flip poset,
``FlipPoset(quiver, d)``, and ``dimer_invariants(poset)`` reads ``(F, g)``
off it.  The F-polynomial sums ``2^cycles * u^e`` over the poset, and the
g-vector is the weight of the minimal matching (the poset's bottom) divided
by ``x^d``.  The Laurent expansion ``x^g * F(yhat)`` is F with each term
relabeled, ``expansion_from_f_and_g(quiver, f, g)``; a caller that prints or
compares it builds it.  Its term for e is ``2^cycles * x^(wt - d) * y^e``,
the configuration's own weight: the base graph proves once, at
construction, that the x-weight of a flip changes by Ŷ's column
(``BaseGraph._check_flips``).

``verify_root(poset, oracles, atlas)`` compares every invariant against the
requested independent oracles — the closed-form exponent-vector conditions
and/or direct seed mutation — and reports the outcome per quantity.  The
closed-form oracle gives F and g, and its expansion is the same relabel of
them, so its Laurent match is its F match and its g match; the mutation
oracle gives an expansion, compared with the dimer model's before its F
and g are read off it (a match fixes them).  An oracle that
disagrees also gets its differences named.
``verify_quiver(quiver)`` is the one per-orientation loop: it checks the
oracle names, then builds one base graph, at most one mutation atlas, and one
poset per root.  It walks the atlas only for a caller that hands it none:
each ``verify --n`` task with the mutation oracle is a ``Quiver.orbit``,
whose first quiver is walked once, and each member gets that walk's
``moved_atlas``.  Every poset, Tran's oracle and every comparison still run
per quiver.
"""

from __future__ import annotations

from dimercluster.base_graph import BaseGraph
from dimercluster.flip_poset import FlipPoset
from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.mutation_oracle import (
    expansion_from_f_and_g,
    f_polynomial_from_expansion,
    g_vector_from_expansion,
    walk_cluster_variables,
)
from dimercluster.quiver_core import format_quiver, graded_lex_sorted, positive_roots
from dimercluster.tran_oracle import tran_f_polynomial, tran_g_vector

ORACLE_NAMES = ("tran", "mutation")

# Entries kept in each list of named differences.
MISMATCH_LIST_LIMIT = 5


def dimer_invariants(poset):
    """F and g of the instance the poset holds.  F's terms are the poset's
    coefficients as they are: n-tuples of ints, each 2^cycles, so none is
    validated again."""
    f = LaurentPolynomial._build(u_context(poset.quiver.n), dict(poset.coefficients))
    g = tuple(w - x for w, x in zip(poset.bottom_weight, poset.d))
    return f, g


def _mismatches(quiver, f, g, of, og, ol):
    """The differences between the dimer model's (f, g) and an oracle's
    (of, og), as JSON-ready lists of at most MISMATCH_LIST_LIMIT entries
    each, in graded-lex order of the exponents:

    * "f": monomials whose coefficients differ, with both (0 when absent);
    * "g": g-coordinates that differ, with both values;
    * "laurent_dimer_only" / "laurent_oracle_only": Laurent terms whose
      monomial the other side lacks.

    The dimer model's expansion is built here, and so is the oracle's when
    ol is None (the closed-form oracle's is the relabel of (of, og)).
    """

    def first(items):
        return graded_lex_sorted(items)[:MISMATCH_LIST_LIMIT]

    def only(p, keys):  # p's first terms at keys, as the rows of its JSON form
        terms = {e: p.terms[e] for e in first(keys)}
        return LaurentPolynomial(p.context, terms).to_json()["terms"]

    laurent = expansion_from_f_and_g(quiver, f, g)
    if ol is None:
        ol = expansion_from_f_and_g(quiver, of, og)
    dimer, oracle = f.terms, of.terms
    differing = [e for e in dimer.keys() | oracle.keys() if dimer.get(e, 0) != oracle.get(e, 0)]
    return {
        "f": [
            {"exponents": list(e), "dimer": dimer.get(e, 0), "oracle": oracle.get(e, 0)}
            for e in first(differing)
        ],
        "g": [
            {"coordinate": i, "dimer": a, "oracle": b}
            for i, (a, b) in enumerate(zip(g, og))
            if a != b
        ][:MISMATCH_LIST_LIMIT],
        "laurent_dimer_only": only(laurent, laurent.terms.keys() - ol.terms.keys()),
        "laurent_oracle_only": only(ol, ol.terms.keys() - laurent.terms.keys()),
    }


def verify_root(poset, oracles, atlas):
    """Compare the dimer model against independent oracles for one instance.

    oracles are names from ORACLE_NAMES; atlas is the quiver's
    ``walk_cluster_variables`` result, read only for "mutation".  Returns the
    report ``verify`` prints: "quiver" (its text form), "root", "ok",
    "roundtrip" (always true, kept for schema 1: the base graph's check at
    construction makes every configuration ``FlipPoset`` reaches the closed
    form of its exponent vector), and per-oracle match flags under
    "oracles".  The closed-form oracle's "laurent_match" is its "f_match" and "g_match"
    together: both expansions relabel their (F, g) alike, with e as the
    y-part and the constant term 1, so they agree exactly when F and g do.
    For "mutation" the walk's expansion is compared with the dimer model's
    first.  When they are equal and F(0) = 1, the walk's F and g are the
    dimer model's: in x^g F(ŷ) the term of F at e has y-part e, so setting
    every x to 1 gives F back, and its one y-free term is x^g.  Only a
    mismatch, or an F(0) other than 1, reads F and g off the walk's
    expansion, which raises ValueError when its F(0) is not 1.
    The entry of an oracle that disagrees also names the differences under
    "mismatches" (``_mismatches``).  The invariants themselves are
    ``dimer_invariants(poset)``.
    """
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
            laurent_match = ol == expansion_from_f_and_g(quiver, f, g)
            if laurent_match and f.coefficient((0,) * n) == 1:
                of, og = f, g
            else:
                of = f_polynomial_from_expansion(ol, n)
                og = g_vector_from_expansion(ol, n)
        entry = {"f_match": of == f, "g_match": og == g, "laurent_match": laurent_match}
        if not all(entry.values()):
            entry["mismatches"] = _mismatches(quiver, f, g, of, og, ol)
            report["ok"] = False
        report["oracles"][name] = entry
    return report


def verify_quiver(quiver, oracles=ORACLE_NAMES, roots=None, atlas=None):
    """Reports for every positive root (or a chosen subset) of one quiver.
    atlas is the quiver's ``walk_cluster_variables`` result; it is walked
    here when "mutation" is asked for and none is given."""
    for name in oracles:
        if name not in ORACLE_NAMES:
            raise ValueError("unknown oracle %r (choose from %s)" % (name, ORACLE_NAMES))
    if atlas is None and "mutation" in oracles:
        atlas = walk_cluster_variables(quiver)
    graph = BaseGraph(quiver)
    return [
        verify_root(FlipPoset(quiver, d, graph=graph), oracles, atlas)
        for d in (roots if roots is not None else positive_roots(quiver.n))
    ]
