"""Unit tests for configurations, flips, cycle counting, and recovery."""

import itertools
import random
import re

import pytest

from dimercluster.base_graph import BaseGraph, edge_key
from dimercluster.mixed_dimer import (
    config_from_e,
    flip,
    minimal_matching,
    support_summary,
    x_exponents,
)
from dimercluster.quiver_core import all_orientations, parse_quiver, positive_roots

from frozen import (
    D5,
    D6,
    FLIPPABLE_MIN_QA,
    POLY_EXCLUDED_QA,
    QA,
    QB,
    QC,
    WT_MIN_QA,
    WT_MIN_QB,
)
from reference import (
    acceptable_evectors,
    add_configs,
    as_dict,
    config_from_e_by_flips,
    config_valences,
    corner_marks,
    e_from_config,
    is_flippable,
)


def E(p, q):
    return edge_key(tuple(p), tuple(q))


@pytest.fixture(scope="module")
def ga():
    return BaseGraph(QA)


@pytest.fixture(scope="module")
def gb():
    return BaseGraph(QB)


@pytest.fixture(scope="module")
def gc():
    return BaseGraph(QC)


# ---- [DERIVED] frozen minimal matchings -----------------------------------------


def test_minimal_matching_is_a_tuple_indexed_like_the_edges():
    graph = BaseGraph(QC)
    m = minimal_matching(graph, D5)
    assert type(m) is tuple and len(m) == len(graph.edges)
    assert minimal_matching(graph, D5) == m
    assert e_from_config(graph, D5, m) == (0,) * 5


def test_rank5_minimal_matching(gc):
    expected = {
        E((0, 0), (1, 0)): 1,  # south of tile 0
        E((0, 1), (1, 1)): 1,  # north of tile 0
        E((2, 1), (2, 0)): 1,  # east of tile 1
        E((1, 2), (1, 3)): 2,  # brick west-high, doubled
        E((1, 4), (2, 4)): 1,  # north of tile 3
        E((3, 2), (2, 2)): 1,  # south of tile 4
        E((2, 3), (3, 3)): 1,  # north of tile 4
        E((1, 1), (2, 1)): 1,  # brick south (shared with tile 1)
        E((2, 2), (2, 3)): 1,  # brick east-high (shared with tile 4)
    }
    assert as_dict(gc, minimal_matching(gc, D5)) == expected


def test_rank5_weight_and_g(gc):
    m = minimal_matching(gc, D5)
    assert x_exponents(gc, m) == (0, 1, 2, 2, 0)  # x1 x2^2 x3^2


def test_rank6_weights_of_minimal(ga, gb):
    assert x_exponents(ga, minimal_matching(ga, D6)) == WT_MIN_QA
    assert x_exponents(gb, minimal_matching(gb, D6)) == WT_MIN_QB


def test_rank6_flippable_tiles(ga):
    m = minimal_matching(ga, D6)
    flippable = {i for i in range(6) if is_flippable(ga, D6, m, i)}
    assert flippable == FLIPPABLE_MIN_QA


def test_rank5_flippable_tiles(gc):
    m = minimal_matching(gc, D5)
    flippable = {i for i in range(5) if is_flippable(gc, D5, m, i)}
    assert flippable == {0, 2, 4}


# ---- closed form vs flips ---------------------------------------------------------


def test_flip_raises_exponent(gc):
    m = minimal_matching(gc, D5)
    stepped = flip(gc, m, 0)
    assert stepped == config_from_e(gc, D5, (1, 0, 0, 0, 0))
    # flipping where a bw-side is absent goes negative (hence not allowable)
    assert not is_flippable(gc, D5, m, 1)
    assert any(v < 0 for v in flip(gc, m, 1))


def test_flip_preserves_valences(gc):
    m = minimal_matching(gc, D5)
    base = config_valences(as_dict(gc, m))
    for i in (0, 2, 4):
        assert config_valences(as_dict(gc, flip(gc, m, i))) == base


@pytest.mark.parametrize("quiver,d", [(QC, D5), (QA, D6), (QB, D6)])
def test_closed_form_equals_flip_executor(quiver, d):
    graph = BaseGraph(quiver)
    for e in acceptable_evectors(quiver, d):
        assert config_from_e(graph, d, e) == config_from_e_by_flips(graph, d, e)


def is_realizable(graph, d, e):
    """e lies in the box 0 <= e <= d and the closed form gives no negative
    multiplicity."""
    if any(not (0 <= e[i] <= d[i]) for i in range(graph.n)):
        return False
    try:
        config_from_e(graph, d, e)
    except ValueError:
        return False
    return True


def test_realizability_matches_arrow_conditions(gc):
    # [DERIVED] nonnegative multiplicities <=> box + arrow inequalities
    from reference import arrow_conditions_hold

    for e in itertools.product(range(3), repeat=5):
        assert is_realizable(gc, D5, e) == arrow_conditions_hold(QC, D5, e)


# ---- cycle counting ----------------------------------------------------------------


def test_cycle_counts_rank5(gc):
    # the doubled coefficient comes from the single free 6-cycle at e = 11101
    cases = {
        (0, 0, 0, 0, 0): 0,
        (1, 1, 1, 0, 1): 1,
        (1, 1, 1, 1, 1): 0,
        (1, 1, 2, 1, 1): 0,
        (1, 1, 2, 0, 1): 0,
    }
    for e, expected in cases.items():
        assert support_summary(gc, config_from_e(gc, D5, e), {})[1] == expected, e


def test_cycle_count_matches_coefficient_everywhere(gc):
    from dimercluster.tran_oracle import tran_f_polynomial

    f = tran_f_polynomial(QC, D5)
    for e in acceptable_evectors(QC, D5):
        c = support_summary(gc, config_from_e(gc, D5, e), {})[1]
        assert 2 ** c == f.coefficient(e)


# ---- marked corners -----------------------------------------------------------------


def test_monochromatic_frozen_cases(ga, gc):
    # the brick flip from the rank-5 minimal matching joins green to red
    colors = corner_marks(gc, D5)
    bad = config_from_e(gc, D5, (0, 0, 1, 0, 0))
    assert not support_summary(gc, bad, colors)[0]
    assert support_summary(gc, minimal_matching(gc, D5), colors)[0]
    # the excluded rank-6 vector joins marked corners too
    excluded = config_from_e(ga, D6, POLY_EXCLUDED_QA)
    assert not support_summary(ga, excluded, corner_marks(ga, D6))[0]


# ---- exponent recovery ----------------------------------------------------------------


@pytest.mark.parametrize("quiver,d", [(QC, D5), (QA, D6), (QB, D6)])
def test_e_from_config_roundtrip(quiver, d):
    graph = BaseGraph(quiver)
    for e in acceptable_evectors(quiver, d):
        assert e_from_config(graph, d, config_from_e(graph, d, e)) == e


def test_e_from_config_rejects_garbage(gc):
    m = minimal_matching(gc, D5)
    k = next(k for k, mult in enumerate(m) if mult)
    broken = m[:k] + (m[k] + 1,) + m[k + 1 :]  # odd superimposed valence at both endpoints
    with pytest.raises(ValueError):
        e_from_config(gc, D5, broken)


def test_e_from_config_rejects_a_leftover_even_edge():
    # the cycle peel passed over an edge of even multiplicity on no cycle, and
    # once returned e = (0, 0, 0, 1) for this multiset
    quiver = parse_quiver("n=4; 0>1, 1>2, 1>3")
    graph = BaseGraph(quiver)
    d = (0, 0, 0, 1)
    config = config_from_e(graph, d, (0, 0, 0, 1))
    assert e_from_config(graph, d, config) == (0, 0, 0, 1)
    k = graph.edge_index[((2, 1), (3, 1))]
    padded = config[:k] + (config[k] + 4,) + config[k + 1 :]
    with pytest.raises(ValueError, match="not the configuration of its boundary height"):
        e_from_config(graph, d, padded)


def test_e_from_config_refuses_what_is_not_a_tuple_per_edge(gc):
    golden = config_from_e(gc, D5, (1, 1, 1, 0, 1))
    message = "a configuration is a tuple of %d multiplicities, one per edge" % len(gc.edges)
    for wrong in (golden[:-1], golden + (0,), golden[:3], (), list(golden),
                  as_dict(gc, golden), None):
        with pytest.raises(ValueError, match=re.escape(message)):
            e_from_config(gc, D5, wrong)
    assert e_from_config(gc, D5, golden) == (1, 1, 1, 0, 1)


def test_config_from_e_names_an_unrealizable_edge_by_its_corners(gc):
    # e_1 = 1 with e_0 = 0 takes tile 1's side shared with tile 0 below zero
    message = (
        "exponent vector (0, 1, 0, 0, 0) is not realizable (edge ((1, 0), (1, 1)) "
        "would have multiplicity -1)"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_e(gc, D5, (0, 1, 0, 0, 0))


@pytest.mark.parametrize(
    "d, e",
    [
        # a sixth entry was read as the outer face's, giving a wrong configuration
        (D5, (0, 0, 0, 0, 0, -1)),
        ((1, 1, 2, 1, 1, 1), (0, 0, 0, 0, 0)),
        # a short vector raised IndexError
        ((1, 1, 1, 1), (0, 0, 0, 0, 0)),
        (D5, (0, 0, 0, 0)),
    ],
    ids=["long-e", "long-d", "short-d", "short-e"],
)
def test_config_from_e_refuses_vectors_of_the_wrong_width(gc, d, e):
    with pytest.raises(ValueError, match="d and e must have 5 entries each"):
        config_from_e(gc, d, e)


def test_e_from_config_rejects_negative_multiplicities(gc):
    # every -1/-2 single-edge perturbation that goes below zero; 7 of these
    # once recovered the unperturbed e instead of raising
    golden = config_from_e(gc, D5, (1, 1, 1, 0, 1))
    negative = 0
    for edge in gc.edges:
        for step in (1, 2):
            m = golden[gc.edge_index[edge]] - step
            if m < 0:
                k = gc.edge_index[edge]
                message = "edge %r has negative multiplicity %d" % (edge, m)
                with pytest.raises(ValueError, match=re.escape(message)):
                    e_from_config(gc, D5, golden[:k] + (m,) + golden[k + 1 :])
                negative += 1
    assert negative == 26


def test_roundtrip_random_quivers():
    # [DERIVED] seeded sweep over rank-4 orientations and every root
    rng = random.Random(424242)
    quivers = all_orientations(4)
    for quiver in rng.sample(quivers, 4):
        graph = BaseGraph(quiver)
        for d in positive_roots(4):
            for e in acceptable_evectors(quiver, d):
                config = config_from_e(graph, d, e)
                assert e_from_config(graph, d, config) == e
                assert config == config_from_e_by_flips(graph, d, e)


def test_valences_constant_across_configs(gb):
    base = config_valences(as_dict(gb, minimal_matching(gb, D6)))
    for e in acceptable_evectors(QB, D6):
        assert config_valences(as_dict(gb, config_from_e(gb, D6, e))) == base


def test_add_configs_cancels():
    a = {("p", "q"): 2}
    b = {("p", "q"): -2, ("q", "r"): 1}
    assert add_configs(a, b) == {("q", "r"): 1}
