"""Acceptance gate: the nine pinned criteria, one verdict line each.

Every criterion prints ``AC<k> PASS`` or ``AC<k> FAIL`` in the terminal
summary (see conftest).  Budgets are wall-clock seconds pinned next to each
criterion; all numeric comparisons are exact integer equality.

AC2 carries a documented defect: the published g-vector for the rank-5
instance contradicts the published Laurent expansion of the same variable
(its unit term forces coordinate 3 to be +1, both oracles agree).  The
attainable clauses are asserted; the published-g clause is kept as a
strict-xfail test and the criterion line reports FAIL honestly.
"""

import functools
import random
import time

import pytest

from conftest import record_ac
from dimercluster.base_graph import BaseGraph
from dimercluster.cluster_invariants import (
    ORACLE_NAMES,
    dimer_invariants,
    verify_quiver,
    verify_root,
)
from dimercluster.flip_poset import FlipPoset
from dimercluster.laurent_poly import LaurentPolynomial, u_context, xy_context
from dimercluster.mixed_dimer import (
    config_from_e,
    flip,
    minimal_matching,
    support_summary,
    x_exponents,
)
from dimercluster.mutation_oracle import (
    expansion_from_f_and_g,
    f_polynomial_from_expansion,
    g_vector_from_expansion,
    walk_cluster_variables,
)
from dimercluster.quiver_core import Quiver, all_orientations, dynkin_edges, positive_roots
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
    G_QC_PUBLISHED,
    LAURENT_QC,
    POLY_EXCLUDED_QA,
    QA,
    QB,
    QC,
    WT_MIN_QB,
    YHAT_QC,
)
from reference import (
    acceptable_evectors,
    component_charges,
    config_from_e_by_flips,
    corner_colors,
    corner_marks,
    e_from_config,
    enumerate_cluster_variables,
    is_distributive,
    is_flippable,
    support_summary_by_incidence,
)

# Wall-clock bound on building and verifying all 960 rank-6 instances.
RANK6_SWEEP_BOUND_S = 30.0
# Wall-clock bound on the rank-8 sample (512 instances against tran, 64 of
# them against the mutation walk too), measured at 3.4-4.8 s.
RANK8_SAMPLE_BOUND_S = 60.0
# Wall-clock bound on the rank-11 to -13 sample (96 instances against tran),
# measured at 0.9-1.0 s.
RANK11_TO_13_SAMPLE_BOUND_S = 60.0


def invariants(quiver, d):
    """(F, g, laurent) of one instance, from the dimer model."""
    f, g = dimer_invariants(FlipPoset(quiver, d))
    return f, g, expansion_from_f_and_g(quiver, f, g)


def criterion(k, budget=None):
    """Record the AC verdict; optionally pin a wall-clock budget (seconds)."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record_ac(k, False)
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed > budget:
                record_ac(k, False, "over budget: %.2fs > %ss" % (elapsed, budget))
                raise AssertionError(
                    "AC%d exceeded its %ss budget (%.2fs)" % (k, budget, elapsed)
                )
            record_ac(k, True)
            return out

        return wrapper

    return deco


# ---- AC1: golden rank-6 F-polynomial, three routes ----------------------------------


@criterion(1, budget=1.0)
def test_ac1_rank6_f_polynomial_three_ways():
    dimer, g, _ = invariants(QA, D6)
    tran = tran_f_polynomial(QA, D6)
    atlas = walk_cluster_variables(QA)
    mutation = f_polynomial_from_expansion(atlas[D6], QA.n)
    assert dimer == tran == mutation
    terms = dict(dimer.sorted_terms())
    assert len(terms) == F_QA_TERM_COUNT
    assert sum(terms.values()) == F_QA_AT_ONES
    assert sorted(e for e, c in terms.items() if c == 2) == sorted(F_QA_COEFF2)
    # the published duplicated monomial carries coefficient 1, fixed by mutation
    assert terms[F_QA_DUPLICATE_FIX] == 1
    assert g == G_QA == tran_g_vector(QA, D6)


# ---- AC2: golden rank-5 triple --------------------------------------------------------


def test_ac2_rank5_golden_triple():
    start = time.perf_counter()
    f, g, laurent = invariants(QC, D5)
    assert f == LaurentPolynomial(u_context(5), F_QC)
    # yhat_i is x^0 * F(yhat) for F = u_i
    assert [
        expansion_from_f_and_g(QC, LaurentPolynomial.variable(u_context(5), "u%d" % i), (0,) * 5)
        for i in range(5)
    ] == [LaurentPolynomial(xy_context(5), {exps: 1}) for exps in YHAT_QC]
    expected = LaurentPolynomial(xy_context(5), {x + y: c for x, y, c in LAURENT_QC})
    assert laurent == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    # criterion as printed also pins the published g-vector, which contradicts
    # the published expansion's unit term; report the criterion honestly
    assert g == G_QC
    record_ac(
        2,
        g == G_QC_PUBLISHED,
        "published g clause contradicts the published expansion; "
        "F/yhat/Laurent exact — see strict xfail",
    )


@pytest.mark.xfail(
    strict=True,
    reason="published g-vector for the rank-5 instance is inconsistent with the"
    " published Laurent expansion; both oracles give (-1, 0, 0, 1, -1)",
)
def test_ac2_published_g_vector_clause():
    assert invariants(QC, D5)[1] == G_QC_PUBLISHED


# ---- AC3: golden rank-6 branch-heavy weight and g-vector ------------------------------


@criterion(3, budget=1.0)
def test_ac3_rank6_branch_heavy_weight_and_g():
    graph = BaseGraph(QB)
    # wt(M_-) = x1^3 x2^2 x3^2
    assert x_exponents(graph, minimal_matching(graph, D6)) == WT_MIN_QB
    assert invariants(QB, D6)[1] == G_QB == tran_g_vector(QB, D6)


# ---- AC4: exhaustive three-way equivalence --------------------------------------------


@criterion(4)
def test_ac4_three_way_equivalence_ranks_4_and_5(sweep4, sweep5):
    start = time.perf_counter()
    instances = 0
    for sweep in (sweep4, sweep5):
        for entry in sweep.entries:
            for d, poset in entry.posets.items():
                report = verify_root(poset, ORACLE_NAMES, entry.atlas)
                assert report["ok"], (entry.quiver.arrows, d, report)
                instances += 1
    assert instances == 8 * 12 + 16 * 20  # 96 + 320
    elapsed = time.perf_counter() - start + sweep4.build_seconds + sweep5.build_seconds
    assert elapsed < 300.0


def test_ac4_extended_rank6_sweep(sweep6):
    start = time.perf_counter()
    count = 0
    for entry in sweep6.entries:
        for d, poset in entry.posets.items():
            report = verify_root(poset, ORACLE_NAMES, entry.atlas)
            assert report["ok"], (entry.quiver.arrows, d, report)
            count += 1
    assert count == 32 * 30
    assert time.perf_counter() - start + sweep6.build_seconds < RANK6_SWEEP_BOUND_S


def test_ac4_rank8_sample():
    # every rank-8 orientation with 4 seeded roots against tran, and the
    # roots of 16 seeded orientations against the mutation walk as well
    start = time.perf_counter()
    rng = random.Random(8)
    roots = positive_roots(8)
    quivers = all_orientations(8)
    walked = set(rng.sample(range(len(quivers)), 16))
    checked = {name: 0 for name in ORACLE_NAMES}
    mismatches = []
    for k, quiver in enumerate(quivers):
        oracles = ORACLE_NAMES if k in walked else ("tran",)
        for report in verify_quiver(quiver, oracles, rng.sample(roots, 4)):
            d = report["root"]
            if not report["roundtrip"]:
                mismatches.append((quiver, d, "roundtrip"))
            for name, entry in report["oracles"].items():
                checked[name] += 1
                if "mismatches" in entry:
                    mismatches.append((quiver, d, name, entry["mismatches"]))
    assert mismatches == []
    assert checked == {"tran": 128 * 4, "mutation": 16 * 4}
    assert time.perf_counter() - start < RANK8_SAMPLE_BOUND_S


def test_ac4_rank11_to_13_sample():
    # 8 seeded orientations per rank, each with 4 seeded roots, against tran
    start = time.perf_counter()
    rng = random.Random(1113)
    checked = 0
    mismatches = []
    for n in (11, 12, 13):
        roots = positive_roots(n)
        edges = dynkin_edges(n)
        for _ in range(8):
            mask = rng.getrandbits(n - 1)
            arrows = [(b, a) if mask >> k & 1 else (a, b) for k, (a, b) in enumerate(edges)]
            quiver = Quiver(n, arrows)
            for report in verify_quiver(quiver, ("tran",), rng.sample(roots, 4)):
                checked += 1
                if not report["ok"]:
                    mismatches.append((quiver, report["root"], report["oracles"]))
    assert mismatches == []
    assert checked == 3 * 8 * 4
    assert time.perf_counter() - start < RANK11_TO_13_SAMPLE_BOUND_S


# ---- AC5: bijection roundtrips ---------------------------------------------------------


@criterion(5)
def test_ac5_roundtrips_and_flip_agreement(sweep4, sweep5):
    for sweep in (sweep4, sweep5):
        for entry in sweep.entries:
            quiver, graph = entry.quiver, entry.graph
            for d, poset in entry.posets.items():
                supported = acceptable_evectors(quiver, d)
                assert sorted(poset.elements) == sorted(supported)
                for e in supported:
                    config = config_from_e(graph, d, e)
                    # closed-form multiplicities == weighted-flip procedure
                    assert config == config_from_e_by_flips(graph, d, e)
                    # e -> D -> e and D -> e -> D on every poset element
                    assert e_from_config(graph, d, config) == e
                    assert config_from_e(graph, d, e_from_config(graph, d, config)) == config


# ---- AC6: the excluded polychromatic configuration ------------------------------------


@criterion(6)
def test_ac6_excluded_configuration():
    graph = BaseGraph(QA)
    m = minimal_matching(graph, D6)
    assert is_flippable(graph, D6, m, 2)
    step1 = flip(graph, m, 2)
    assert is_flippable(graph, D6, step1, 3)
    step2 = flip(graph, step1, 3)
    assert step2 == config_from_e(graph, D6, POLY_EXCLUDED_QA)
    # the reached configuration joins differently-colored nodes
    assert not support_summary(graph, step2, corner_marks(graph, D6))[0]
    assert not support_summary_by_incidence(graph, step2, corner_colors(graph, D6))[0]
    # u2*u3 is absent from F
    assert invariants(QA, D6)[0].coefficient(POLY_EXCLUDED_QA) == 0
    assert tran_f_polynomial(QA, D6).coefficient(POLY_EXCLUDED_QA) == 0
    # the condition oracle charges component {2, 3} twice
    assert component_charges(QA, D6, POLY_EXCLUDED_QA) == {(2, 3): 2}
    # and the poset never admits it
    poset = FlipPoset(QA, D6, graph=graph)
    assert POLY_EXCLUDED_QA in poset.excluded
    assert POLY_EXCLUDED_QA not in poset.elements


# ---- AC7: coefficient law 2^cycles ------------------------------------------------------


@criterion(7)
def test_ac7_coefficient_law(sweep4, sweep5):
    for sweep in (sweep4, sweep5):
        for entry in sweep.entries:
            quiver, graph = entry.quiver, entry.graph
            for d, poset in entry.posets.items():
                coeffs = poset.coefficients
                f = tran_f_polynomial(quiver, d)
                for e in poset.elements:
                    config = config_from_e(graph, d, e)
                    charges = component_charges(quiver, d, e)
                    uncharged = sum(1 for c in charges.values() if c == 0)
                    cycles = support_summary(graph, config, {})[1]
                    unmarked = [None] * len(graph.corners)
                    assert cycles == support_summary_by_incidence(graph, config, unmarked)[1]
                    assert cycles == uncharged, (quiver.arrows, d, e)
                    assert coeffs[e] == 2 ** cycles == f.coefficient(e)


# ---- AC8: poset and lattice properties ---------------------------------------------------


@criterion(8, budget=60.0)
def test_ac8_poset_lattice_properties(sweep4, sweep5):
    for sweep in (sweep4, sweep5):
        for entry in sweep.entries:
            for d, poset in entry.posets.items():
                coeffs = poset.coefficients
                # unique bottom and top with coefficient 1
                zero = (0,) * poset.graph.n
                assert poset.elements[0] == zero and coeffs[zero] == 1
                assert poset.elements[-1] == d and coeffs[d] == 1
                tops = [e for e in poset.elements if not poset.covers[e]]
                bottoms = [
                    e
                    for e in poset.elements
                    if all(e not in ups for ups in poset.covers.values())
                ]
                assert tops == [d] and bottoms == [zero]
                # rank equals |e|: every cover adds one to |e|
                for e, ups in poset.covers.items():
                    assert all(sum(v) == sum(e) + 1 for v in ups)
                # boolean roots give distributive lattices
                if max(d) == 1:
                    ok, _ = poset.is_lattice()
                    assert ok
                    assert poset.n5_witness() is None and poset.m3_witness() is None
    # the rank-5 frozen instance is a non-distributive lattice with a pentagon
    poset = FlipPoset(QC, D5)
    ok, _ = poset.is_lattice()
    assert ok
    assert not is_distributive(poset)
    witness = poset.n5_witness()
    assert witness is not None
    u, v, w = witness["u"], witness["v"], witness["w"]
    assert poset.leq(u, v) and u != v
    assert not poset.leq(w, v) and not poset.leq(u, w)
    assert poset.meet(u, w) == poset.meet(v, w) == witness["meet"]
    assert poset.join(u, w) == poset.join(v, w) == witness["join"]


# ---- AC9: mutation-oracle positivity and Laurent exactness --------------------------------


@criterion(9)
def test_ac9_rank4_bfs_exactness_and_positivity():
    for quiver in all_orientations(4):
        # BFS over the exchange graph: any inexact division raises inside
        atlas, seed_count = enumerate_cluster_variables(quiver)
        assert seed_count == 50
        assert len(atlas) == 12 == len(positive_roots(4))
        for d, poly in atlas.items():
            assert all(c > 0 for _, c in poly.sorted_terms()), (quiver.arrows, d)
            assert g_vector_from_expansion(poly, 4)  # well-formed unit term exists
