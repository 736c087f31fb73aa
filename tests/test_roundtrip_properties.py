"""Property tests: the ``e <-> configuration`` roundtrip past the exhaustive
rank-4/5/6 sweeps, on random orientations and roots at ranks 6-10, the
height read against the frozen cycle peel at ranks 7-10, and the flip poset
against its frozen read-back build at ranks 7-10.

The profiles are derandomized, so every run draws the same instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.flip_poset import FlipPoset
from dimercluster.mixed_dimer import config_from_e
from dimercluster.mutation_oracle import expansion_from_f_and_g
from dimercluster.quiver_core import all_orientations, positive_roots

from reference import as_dict, e_from_config, e_from_config_by_peel, flip_poset_by_read_back


def instances(low, high):
    @st.composite
    def draw_instance(draw):
        n = draw(st.integers(low, high))
        quiver = draw(st.sampled_from(all_orientations(n)))
        # highest roots first, so the draws lean toward the larger posets
        d = draw(st.sampled_from(sorted(positive_roots(n), key=sum, reverse=True)))
        return quiver, d

    return draw_instance()


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(instances(6, 9))
def test_roundtrip_on_every_poset_element(instance):
    quiver, d = instance
    poset = FlipPoset(quiver, d)
    for e in poset.elements:
        config = config_from_e(poset.graph, d, e)
        assert e_from_config(poset.graph, d, config) == e
        assert config_from_e(poset.graph, d, e_from_config(poset.graph, d, config)) == config


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(instances(7, 10))
def test_height_equals_the_frozen_peel_ranks_7_to_10(instance):
    quiver, d = instance
    poset = FlipPoset(quiver, d)
    for e in poset.elements:
        config = config_from_e(poset.graph, d, e)
        assert e_from_config(poset.graph, d, config) == e
        assert e_from_config_by_peel(poset.graph, d, as_dict(poset.graph, config)) == e


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(instances(7, 10))
def test_the_poset_equals_the_frozen_read_back_build_ranks_7_to_10(instance):
    # the same draws as above; the weights are read off the Laurent terms
    quiver, d = instance
    poset = FlipPoset(quiver, d)
    elements, excluded, coefficients, weights = flip_poset_by_read_back(poset.graph, d)
    assert poset.elements == elements
    assert poset.excluded == excluded
    assert poset.coefficients == coefficients
    f, g = dimer_invariants(poset)
    n = quiver.n
    assert {
        x[n:]: tuple(a + b for a, b in zip(x, d)) for x in expansion_from_f_and_g(quiver, f, g).terms
    } == weights
