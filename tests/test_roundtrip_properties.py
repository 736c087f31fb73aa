"""Property test: the ``e <-> configuration`` roundtrip past the exhaustive
rank-4/5 sweeps, on random orientations and roots at ranks 6-9.

The profile is derandomized, so every run draws the same instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dimercluster.flip_poset import FlipPoset
from dimercluster.mixed_dimer import config_from_e, e_from_config
from dimercluster.quiver_core import all_orientations, positive_roots


@st.composite
def instances(draw):
    n = draw(st.integers(6, 9))
    quiver = draw(st.sampled_from(all_orientations(n)))
    # highest roots first, so the draws lean toward the larger posets
    d = draw(st.sampled_from(sorted(positive_roots(n), key=sum, reverse=True)))
    return quiver, d


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(instances())
def test_roundtrip_on_every_poset_element(instance):
    quiver, d = instance
    poset = FlipPoset(quiver, d)
    for e, config in poset.configs.items():
        assert e_from_config(poset.graph, d, config) == e
        assert config_from_e(poset.graph, d, e_from_config(poset.graph, d, config)) == config
