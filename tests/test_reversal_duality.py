"""Reversal duality on the dimer route: the dimer model of Q^op (every arrow
reversed, ``Quiver.reversed()``) is Q's with e read as d - e.

Reversing every arrow dualizes the quiver's representations, and
Gr_e(DM) ≅ Gr_{d-e}(M); ``mutation_oracle.moved_atlas`` reads Q^op's
atlas off Q's walk by this duality.  These tests check that the dimer route
obeys it on its own, every piece built from Q^op and never derived from Q:

* ``BaseGraph(Q^op)`` has Q's edges, corners and node labels for every root;
* the closed form of d - e on G(Q^op) is that of e on G(Q);
* Q^op's poset coefficients are Q's at d - e;
* g_Q + g_{Q^op} = -C d, C the frozen Cartan matrix;
* Tran's count of the poset (``poset_size``) is the same for Q and Q^op,
  and for σQ (the tips swapped) at σd;
* Q's first pentagon, read as d - e with u and v and with meet and join
  swapped, is a pentagon of Q^op's lattice.

Every rank-4-6 instance is checked, from the sweep fixtures, and derandomized
draws at ranks 7-10 and 11-12.
"""

from hypothesis import given, settings

from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.flip_poset import FlipPoset
from dimercluster.mixed_dimer import config_from_e
from dimercluster.tran_oracle import poset_size

from reference import cartan_matrix, leq
from test_oracle_properties import instances


def dual(d, e):
    return tuple(a - b for a, b in zip(d, e))


def minus_cartan_times(d):
    c = cartan_matrix(len(d))
    return tuple(-sum(a * x for a, x in zip(row, d)) for row in c)


def check_reversal_duality(poset, reversed_poset):
    d, graph, op_graph = poset.d, poset.graph, reversed_poset.graph
    assert reversed_poset.quiver == poset.quiver.reversed()
    assert op_graph.edges == graph.edges
    assert op_graph.corners == graph.corners
    assert op_graph.node_labels(d) == graph.node_labels(d)
    assert reversed_poset.coefficients == {dual(d, e): c for e, c in poset.coefficients.items()}
    for e in poset.elements:
        assert config_from_e(op_graph, d, dual(d, e)) == config_from_e(graph, d, e)
    g, op_g = dimer_invariants(poset)[1], dimer_invariants(reversed_poset)[1]
    assert tuple(map(sum, zip(g, op_g))) == minus_cartan_times(d)
    size = poset_size(poset.quiver, d)
    assert poset_size(reversed_poset.quiver, d) == size == len(poset.coefficients)
    assert poset_size(poset.quiver.tips_swapped(), tips_swapped(d)) == size


def tips_swapped(d):
    """σd: the root with its fork-tip entries exchanged."""
    return d[:-2] + (d[-1], d[-2])


def test_reversal_duality_on_every_instance_ranks_4_to_6(sweep4, sweep5, sweep6):
    checked = 0
    for sweep in (sweep4, sweep5, sweep6):
        entries = {entry.quiver: entry for entry in sweep.entries}
        for q, entry in entries.items():
            reversed_entry = entries[q.reversed()]
            for d, poset in entry.posets.items():
                check_reversal_duality(poset, reversed_entry.posets[d])
                checked += 1
    assert checked == 96 + 320 + 960


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(instances(7, 10))
def test_reversal_duality_ranks_7_to_10(instance):
    quiver, d = instance
    check_reversal_duality(FlipPoset(quiver, d), FlipPoset(quiver.reversed(), d))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(instances(11, 12))
def test_reversal_duality_ranks_11_to_12(instance):
    quiver, d = instance
    check_reversal_duality(FlipPoset(quiver, d), FlipPoset(quiver.reversed(), d))


def test_a_pentagon_read_as_d_minus_e_is_a_pentagon_of_the_reversed_lattice(
    sweep4, sweep5, sweep6
):
    # e -> d - e reverses the order, so u < v becomes d - v < d - u and
    # meets become joins; checked through meet, join and the order masks.
    # Every non-distributive lattice at these ranks has a pentagon.
    pentagons = 0
    for sweep in (sweep4, sweep5, sweep6):
        entries = {entry.quiver: entry for entry in sweep.entries}
        for q, entry in entries.items():
            for d, poset in entry.posets.items():
                if not poset.is_lattice()[0]:
                    continue
                witness = poset.n5_witness()
                if witness is None:
                    assert poset.m3_witness() is None
                    continue
                op = entries[q.reversed()].posets[d]
                u, v, w, meet, join = (
                    dual(d, witness[k]) for k in ("v", "u", "w", "join", "meet")
                )
                assert u != v and leq(op, u, v)
                assert not any(leq(op, *pair) for pair in ((u, w), (w, u), (v, w), (w, v)))
                assert op.meet(u, w) == op.meet(v, w) == meet
                assert op.join(u, w) == op.join(v, w) == join
                pentagons += 1
    assert pentagons == 198
