"""End-to-end invariants: F-polynomials, g-vectors, Laurent expansions, reports."""

import sys

import pytest
from click.testing import CliRunner

import dimercluster.cluster_invariants
import dimercluster.laurent_poly
import dimercluster.mixed_dimer
import dimercluster.mutation_oracle
from dimercluster.base_graph import BaseGraph
from dimercluster.cli import main
from dimercluster.cluster_invariants import (
    MISMATCH_LIST_LIMIT,
    ORACLE_NAMES,
    dimer_invariants,
    verify_quiver,
    verify_root,
)
from dimercluster.flip_poset import FlipPoset
from dimercluster.laurent_poly import LaurentPolynomial, u_context, xy_context
from dimercluster.mixed_dimer import minimal_matching, x_exponents
from dimercluster.mutation_oracle import expansion_from_f_and_g, walk_cluster_variables
from dimercluster.quiver_core import Quiver, all_orientations, format_quiver, positive_roots
from dimercluster.tran_oracle import tran_f_polynomial, tran_g_vector
from frozen import (
    COEFF2_E_QB,
    D5,
    D6,
    F_QA_AT_ONES,
    F_QA_COEFF2,
    F_QA_DUPLICATE_FIX,
    F_QA_TERM_COUNT,
    F_QC,
    G_QA,
    G_QB,
    G_QC,
    LAURENT_QC,
    QA,
    QB,
    QC,
    WT_MIN_QA,
    WT_MIN_QB,
)
from reference import verify_root_by_extraction


def invariants(quiver, d):
    f, g = dimer_invariants(FlipPoset(quiver, d))
    return f, g, expansion_from_f_and_g(quiver, f, g)


# ---- frozen rank-5 instance ------------------------------------------------------


def test_rank5_f_polynomial_matches_golden():
    # [PAPER] 13 monomials with a single coefficient-2 term
    f, _, _ = invariants(QC, D5)
    assert f == LaurentPolynomial(u_context(5), F_QC)


def test_rank5_g_vector_matches_golden():
    # [DERIVED] value forced by the y-free unit term of the expansion
    assert invariants(QC, D5)[1] == G_QC


def test_rank5_laurent_expansion_matches_golden():
    # [DERIVED] full 13-term expansion in x and y
    expected = LaurentPolynomial(
        xy_context(5), {x + y: c for x, y, c in LAURENT_QC}
    )
    assert invariants(QC, D5)[2] == expected


def test_rank5_all_routes_agree():
    dimer = invariants(QC, D5)[2]
    tran = expansion_from_f_and_g(QC, tran_f_polynomial(QC, D5), tran_g_vector(QC, D5))
    assert dimer == tran == walk_cluster_variables(QC)[D5]


# ---- frozen rank-6 instances -------------------------------------------------------


def test_rank6_linear_f_polynomial_facts():
    # [DERIVED] corrected 24-term support, total 28, four doubled monomials
    f, _, _ = invariants(QA, D6)
    terms = dict(f.sorted_terms())
    assert len(terms) == F_QA_TERM_COUNT
    assert sum(terms.values()) == F_QA_AT_ONES
    assert sorted(e for e, c in terms.items() if c == 2) == sorted(F_QA_COEFF2)
    assert terms[F_QA_DUPLICATE_FIX] == 1


def test_rank6_linear_g_vector_and_weight():
    graph = BaseGraph(QA)
    assert x_exponents(graph, minimal_matching(graph, D6)) == WT_MIN_QA
    assert invariants(QA, D6)[1] == G_QA


def test_rank6_branch_heavy_weight_and_g_vector():
    # [PAPER] wt(M_-) = x1^3 x2^2 x3^2 and g = (-1, 2, 0, 0, -1, -1)
    graph = BaseGraph(QB)
    assert x_exponents(graph, minimal_matching(graph, D6)) == WT_MIN_QB
    assert invariants(QB, D6)[1] == G_QB


def test_rank6_branch_heavy_doubled_coefficient():
    # [PAPER] the u2 u3^2 u4 u5 monomial carries coefficient 2
    f, _, _ = invariants(QB, D6)
    assert f.coefficient(COEFF2_E_QB) == 2


# ---- verification reports ----------------------------------------------------------


def test_verify_root_report_structure():
    poset = FlipPoset(QC, D5)
    report = verify_root(poset, ORACLE_NAMES, walk_cluster_variables(QC))
    assert set(report) == {"quiver", "root", "ok", "roundtrip", "oracles"}
    assert report["ok"] is True
    assert report["quiver"] == format_quiver(QC)
    assert report["root"] == D5
    assert dimer_invariants(poset)[1] == G_QC
    assert set(report["oracles"]) == {"tran", "mutation"}
    for entry in report["oracles"].values():
        assert entry == {"f_match": True, "g_match": True, "laurent_match": True}


def test_verify_root_single_oracle():
    report = verify_root(FlipPoset(QA, D6), ("tran",), None)
    assert report["ok"] is True
    assert list(report["oracles"]) == ["tran"]


def test_verify_quiver_rank4_all_roots():
    q = Quiver(4, [(0, 1), (1, 2), (3, 1)])
    reports = verify_quiver(q)
    assert len(reports) == len(positive_roots(4))
    assert all(r["ok"] for r in reports)


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.<name>`` through each module of the
    package that binds it, or through the class when owner is one; returns
    the dict module (or class) name -> count."""
    original = getattr(owner, name)
    counts = {}

    def counted(module_name):
        def call(*args):
            counts[module_name] += 1
            return original(*args)

        return call

    if isinstance(owner, type):  # a method, or a classmethod called on the class
        counts[owner.__name__] = 0
        monkeypatch.setattr(owner, name, counted(owner.__name__))
        return counts
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("dimercluster") and getattr(module, name, None) is original:
            counts[module_name] = 0
            monkeypatch.setattr(module, name, counted(module_name))
    return counts


def test_the_rank5_sweep_makes_one_closed_form_per_instance(monkeypatch):
    # Per instance the minimal matching's closed form, and no configuration
    # read back: a closed form per flip result shows up here.  The support
    # pass runs once on the minimal matching and once on each flip result.
    # Each base graph reads Ŷ off one expansion for its check, once per
    # orientation; verify builds the dimer model's expansion only for the
    # mutation oracle, and with the closed-form oracle alone, where
    # everything matches, none.
    closed_forms = count_calls(monkeypatch, dimercluster.mixed_dimer, "config_from_e")
    flips = count_calls(monkeypatch, dimercluster.mixed_dimer, "flip")
    support_passes = count_calls(monkeypatch, dimercluster.mixed_dimer, "support_summary")
    expansions = count_calls(monkeypatch, dimercluster.mutation_oracle, "expansion_from_f_and_g")
    instances = 0
    for quiver in all_orientations(5):
        instances += len(verify_quiver(quiver))
    assert (instances, sum(flips.values())) == (16 * 20, 1799)
    assert sum(closed_forms.values()) == instances == 320
    assert sum(support_passes.values()) == instances + 1799 == 2119
    assert {name: count for name, count in expansions.items() if count} == {
        "dimercluster.base_graph": 16,
        "dimercluster.cluster_invariants": instances,
    }
    expansions.update(dict.fromkeys(expansions, 0))
    reports = [r for quiver in all_orientations(5) for r in verify_quiver(quiver, ("tran",))]
    assert len(reports) == instances and all(r["ok"] for r in reports)
    assert {name: count for name, count in expansions.items() if count} == {
        "dimercluster.base_graph": 16,
    }


def test_the_rank6_sweep_multiplies_once_per_cluster_factor(monkeypatch):
    # The 12 walks (one per ⟨σ, ρ⟩ orbit) make 360 mutations, each dividing
    # once; each side of an exchange binomial is one y-monomial times its
    # cluster factors, so the only variables built are the 72 initial x's,
    # and the product count is the factor count (it was 1,820 with one
    # product per unit of |b_ik|, y's included, and 1,172 variables).
    mutations = count_calls(monkeypatch, dimercluster.mutation_oracle, "mutate_seed")
    divisions = count_calls(monkeypatch, dimercluster.laurent_poly, "divide_exact")
    products = count_calls(monkeypatch, LaurentPolynomial, "__mul__")
    variables = count_calls(monkeypatch, LaurentPolynomial, "variable")
    result = CliRunner().invoke(main, ["verify", "--n", "6", "--jobs", "1"])
    assert result.output == "verified 960 instances against tran+mutation: all ok\n"
    counts = [mutations, divisions, products, variables]
    assert [sum(c.values()) for c in counts] == [360, 360, 600, 72]


def test_verify_quiver_subset_of_roots():
    roots = [(1, 0, 0, 0), (1, 2, 1, 1)]
    reports = verify_quiver(Quiver(4, [(1, 0), (1, 2), (1, 3)]), roots=roots)
    assert [r["root"] for r in reports] == roots
    assert all(r["ok"] for r in reports)


def wrong_tran(monkeypatch, f_terms=None, g_shift=0):
    """Make the tran oracle report F with the given terms overriding its own
    and coordinate 0 of g moved by g_shift."""
    tran_f, tran_g = tran_f_polynomial, tran_g_vector

    def f(quiver, d):
        terms = dict(tran_f(quiver, d).terms)
        terms.update(f_terms or {})
        return LaurentPolynomial(u_context(quiver.n), {e: c for e, c in terms.items() if c})

    def g(quiver, d):
        og = tran_g(quiver, d)
        return (og[0] + g_shift,) + og[1:]

    monkeypatch.setattr(dimercluster.cluster_invariants, "tran_f_polynomial", f)
    monkeypatch.setattr(dimercluster.cluster_invariants, "tran_g_vector", g)


def test_a_wrong_f_names_the_differing_monomials(monkeypatch):
    # the coefficient-2 monomial read as 1, and an excluded vector as a term
    doubled, excluded = (1, 1, 1, 0, 1), (0, 0, 1, 0, 0)
    assert F_QC[doubled] == 2 and excluded not in F_QC
    wrong_tran(monkeypatch, {doubled: 1, excluded: 1})
    report = verify_root(FlipPoset(QC, D5), ORACLE_NAMES, walk_cluster_variables(QC))
    assert report["ok"] is False
    tran = report["oracles"]["tran"]
    assert (tran["f_match"], tran["g_match"], tran["laurent_match"]) == (False, True, False)
    extra = expansion_from_f_and_g(QC, LaurentPolynomial(u_context(5), {excluded: 1}), G_QC)
    assert tran["mismatches"] == {
        "f": [
            {"exponents": [0, 0, 1, 0, 0], "dimer": 0, "oracle": 1},
            {"exponents": [1, 1, 1, 0, 1], "dimer": 2, "oracle": 1},
        ],
        "g": [],
        "laurent_dimer_only": [],
        "laurent_oracle_only": [
            {"exponents": list(e), "coefficient": c} for e, c in extra.terms.items()
        ],
    }
    # the oracle that agrees names nothing
    assert report["oracles"]["mutation"] == {
        "f_match": True,
        "g_match": True,
        "laurent_match": True,
    }


def test_a_wrong_g_names_the_coordinate_and_caps_the_laurent_lists(monkeypatch):
    wrong_tran(monkeypatch, g_shift=1)
    report = verify_root(FlipPoset(QC, D5), ("tran",), None)
    mismatches = report["oracles"]["tran"]["mismatches"]
    assert mismatches["f"] == []
    assert mismatches["g"] == [{"coordinate": 0, "dimer": G_QC[0], "oracle": G_QC[0] + 1}]
    # every x-exponent moves, so each of the 13 terms is on one side only
    dimer_only, oracle_only = mismatches["laurent_dimer_only"], mismatches["laurent_oracle_only"]
    assert len(dimer_only) == len(oracle_only) == MISMATCH_LIST_LIMIT < len(F_QC)
    dimer_laurent = invariants(QC, D5)[2]
    lowest = sorted(dimer_laurent.terms, key=lambda e: (sum(e), e))[:MISMATCH_LIST_LIMIT]
    assert dimer_only == [
        {"exponents": list(e), "coefficient": dimer_laurent.terms[e]} for e in lowest
    ]


# ---- the mutation oracle's comparison order ----------------------------------------


def test_reports_match_the_extraction_first_branch_on_every_rank5_instance(sweep5):
    for entry in sweep5.entries:
        for poset in entry.posets.values():
            assert verify_root(poset, ORACLE_NAMES, entry.atlas) == verify_root_by_extraction(
                poset, ORACLE_NAMES, entry.atlas
            )


def planted(atlas, d, change):
    """A copy of atlas whose variable at d has each term (e, c) replaced by
    change(e, c)."""
    poly = atlas[d]
    terms = dict(change(e, c) for e, c in poly.terms.items())
    return {**atlas, d: LaurentPolynomial(poly.context, terms)}


@pytest.mark.parametrize("y_free", [False, True], ids=["top-term", "y-free-term"])
def test_a_planted_x_part_gets_the_extraction_first_mismatches(y_free):
    # one term's x0 exponent raised: the top term's leaves F and g alone and
    # moves one Laurent term; the y-free term's also moves g
    atlas = walk_cluster_variables(QC)
    terms = atlas[D5].terms
    if y_free:
        (target,) = [e for e in terms if not any(e[5:])]
    else:
        target = max(terms, key=lambda e: (sum(e[5:]), e))

    def change(e, c):
        return ((e[0] + 1,) + e[1:], c) if e == target else (e, c)

    bad = planted(atlas, D5, change)
    poset = FlipPoset(QC, D5)
    report = verify_root(poset, ("mutation",), bad)
    assert report == verify_root_by_extraction(poset, ("mutation",), bad)
    entry = report["oracles"]["mutation"]
    assert (entry["f_match"], entry["g_match"], entry["laurent_match"]) == (True, not y_free, False)
    assert len(entry["mismatches"]["laurent_oracle_only"]) == 1


@pytest.mark.parametrize("dimer_too", [False, True], ids=["walk-only", "walk-and-dimer"])
def test_an_f_with_constant_term_2_raises_as_the_extraction_first_branch(dimer_too):
    # the walk's y-free term doubled: on its own a Laurent mismatch, and with
    # the dimer model's F(0) doubled as well a match; either way reading F
    # off the walk's expansion raises
    atlas = walk_cluster_variables(QC)
    bad = planted(atlas, D5, lambda e, c: (e, 2 * c if not any(e[5:]) else c))
    poset = FlipPoset(QC, D5)
    if dimer_too:
        poset.coefficients[(0,) * 5] = 2
    assert (bad[D5] == expansion_from_f_and_g(QC, *dimer_invariants(poset))) is dimer_too
    errors = []
    for route in (verify_root, verify_root_by_extraction):
        with pytest.raises(ValueError) as caught:
            route(poset, ("tran", "mutation"), bad)
        errors.append(str(caught.value))
    assert errors == ["expansion has no unit constant term; not a cluster variable?"] * 2


# ---- input validation ----------------------------------------------------------------


def test_rejects_non_roots():
    with pytest.raises(ValueError, match="not a positive root"):
        verify_quiver(QC, roots=[(1, 1, 1, 1, 2)])
    with pytest.raises(ValueError, match="not a positive root"):
        verify_quiver(QC, oracles=("tran",), roots=[(0, 0, 0, 0, 0)])


def test_rejects_unknown_oracle():
    with pytest.raises(ValueError, match="unknown oracle 'nope'"):
        verify_quiver(QC, oracles=("nope",), roots=[D5])
