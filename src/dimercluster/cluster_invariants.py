"""Cluster-variable invariants from the dimer model, with cross-validation.

The constructive route: the F-polynomial sums ``2^cycles * u^e`` over the
flip poset, the g-vector is the weight of the minimal matching divided by
``x^d``, and the Laurent expansion is assembled both as ``x^g * F(yhat)`` and
termwise from per-configuration weights (the two must agree exactly).

``verify_root`` compares every invariant against the requested independent
oracles — the closed-form exponent-vector conditions and/or direct seed
mutation — and reports the outcome per quantity, together with the
``e <-> configuration`` roundtrip over the whole poset.  ``verify_quiver`` is
the one per-orientation loop: one base graph, at most one mutation atlas, and
one poset per root.
"""

from __future__ import annotations

from dimercluster.base_graph import BaseGraph
from dimercluster.flip_poset import FlipPoset
from dimercluster.laurent_poly import LaurentPolynomial, u_context, xy_context
from dimercluster.mixed_dimer import e_from_config, minimal_matching, x_exponents
from dimercluster.mutation_oracle import (
    expansion_from_f_and_g,
    f_polynomial_from_expansion,
    g_vector_from_expansion,
    walk_cluster_variables,
)
from dimercluster.quiver_core import check_root, positive_roots
from dimercluster.tran_oracle import tran_f_polynomial, tran_g_vector

ORACLE_NAMES = ("tran", "mutation")


def dimer_f_polynomial(quiver, d, poset=None):
    d = check_root(quiver, d)
    poset = poset if poset is not None else FlipPoset(quiver, d)
    return LaurentPolynomial(u_context(quiver.n), poset.coefficients())


def dimer_g_vector(quiver, d, graph=None):
    d = check_root(quiver, d)
    graph = graph if graph is not None else BaseGraph(quiver)
    wt = x_exponents(graph, minimal_matching(graph, d))
    return tuple(w - x for w, x in zip(wt, d))


def _dimer_invariants(quiver, d, poset):
    """F, g and the Laurent expansion of one instance.

    The expansion is assembled as ``x^g * F(yhat)`` and termwise from the
    configuration weights, and the two must agree exactly.
    """
    f = dimer_f_polynomial(quiver, d, poset=poset)
    g = dimer_g_vector(quiver, d, graph=poset.graph)
    recombined = expansion_from_f_and_g(quiver, f, g)

    terms = {}
    coeffs = poset.coefficients()
    for e, config in poset.configs.items():
        wt = x_exponents(poset.graph, config)
        exps = tuple(w - x for w, x in zip(wt, d)) + e
        terms[exps] = terms.get(exps, 0) + coeffs[e]
    termwise = LaurentPolynomial(xy_context(quiver.n), terms)
    if termwise != recombined:
        raise AssertionError(
            "termwise configuration weights disagree with x^g * F(yhat) "
            "for root %r" % (d,)
        )
    return f, g, recombined


def dimer_laurent_expansion(quiver, d, poset=None):
    """Laurent expansion, assembled two ways and compared exactly."""
    d = check_root(quiver, d)
    poset = poset if poset is not None else FlipPoset(quiver, d)
    return _dimer_invariants(quiver, d, poset)[2]


def cluster_variable(quiver, d, method="dimer"):
    """Laurent expansion of the variable for root d by the chosen route.

    method: "dimer" (constructive model), "tran" (closed-form conditions),
    or "mutation" (seed mutation).
    """
    d = check_root(quiver, d)
    if method == "dimer":
        return dimer_laurent_expansion(quiver, d)
    if method == "tran":
        return expansion_from_f_and_g(
            quiver, tran_f_polynomial(quiver, d), tran_g_vector(quiver, d)
        )
    if method == "mutation":
        return walk_cluster_variables(quiver)[d]
    raise ValueError("unknown method %r" % (method,))


def verify_root(quiver, d, oracles=ORACLE_NAMES, atlas=None, poset=None):
    """Compare the dimer model against independent oracles for one root.

    Returns a report dict with keys "quiver", "root", "ok", "f", "g",
    "laurent", "roundtrip" (e_from_config inverts every configuration of the
    poset), and per-oracle match flags under "oracles".
    """
    d = check_root(quiver, d)
    n = quiver.n
    for name in oracles:
        if name not in ORACLE_NAMES:
            raise ValueError("unknown oracle %r (choose from %s)" % (name, ORACLE_NAMES))
    poset = poset if poset is not None else FlipPoset(quiver, d)
    f, g, laurent = _dimer_invariants(quiver, d, poset)
    roundtrip = all(
        e_from_config(poset.graph, d, config) == e for e, config in poset.configs.items()
    )
    report = {
        "quiver": quiver,
        "root": d,
        "f": f,
        "g": g,
        "laurent": laurent,
        "roundtrip": roundtrip,
        "oracles": {},
        "ok": roundtrip,
    }
    for name in oracles:
        if name == "tran":
            of = tran_f_polynomial(quiver, d)
            og = tran_g_vector(quiver, d)
            ol = expansion_from_f_and_g(quiver, of, og)
        else:
            if atlas is None:
                atlas = walk_cluster_variables(quiver)
            ol = atlas[d]
            of = f_polynomial_from_expansion(ol, n)
            og = g_vector_from_expansion(ol, n)
        entry = {
            "f_match": of == f,
            "g_match": og == g,
            "laurent_match": ol == laurent,
        }
        report["oracles"][name] = entry
        if not all(entry.values()):
            report["ok"] = False
    return report


def verify_quiver(quiver, oracles=ORACLE_NAMES, roots=None):
    """Reports for every positive root (or a chosen subset) of one quiver."""
    atlas = walk_cluster_variables(quiver) if "mutation" in oracles else None
    graph = BaseGraph(quiver)
    out = []
    for d in roots if roots is not None else positive_roots(quiver.n):
        poset = FlipPoset(quiver, d, graph=graph)
        out.append(verify_root(quiver, d, oracles=oracles, atlas=atlas, poset=poset))
    return out
