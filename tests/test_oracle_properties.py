"""Property tests: the dimer model against both oracles past the exhaustive
rank-4/5 sweeps, on random orientations and roots.

At ranks 4-9 the dimer F, g and Laurent expansion equal the closed-form
oracle's.  Both sides build the expansion with the same relabel of F
(``expansion_from_f_and_g``), so at ranks 4-7 the dimer expansion is also
compared with the mutation walk, which builds it by exact division and shares
no code with the relabel.

The profile is derandomized, so every run draws the same instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.flip_poset import FlipPoset
from dimercluster.mutation_oracle import expansion_from_f_and_g, walk_cluster_variables
from dimercluster.quiver_core import all_orientations, positive_roots
from dimercluster.tran_oracle import tran_f_polynomial, tran_g_vector


@st.composite
def instances(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    quiver = draw(st.sampled_from(all_orientations(n)))
    d = draw(st.sampled_from(positive_roots(n)))
    return quiver, d


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(instances(4, 9))
def test_dimer_equals_tran(instance):
    quiver, d = instance
    f, g = dimer_invariants(FlipPoset(quiver, d))
    laurent = expansion_from_f_and_g(quiver, f, g)
    tf, tg = tran_f_polynomial(quiver, d), tran_g_vector(quiver, d)
    assert f == tf
    assert g == tg
    assert laurent == expansion_from_f_and_g(quiver, tf, tg)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(instances(4, 7))
def test_dimer_laurent_equals_mutation_walk(instance):
    quiver, d = instance
    laurent = expansion_from_f_and_g(quiver, *dimer_invariants(FlipPoset(quiver, d)))
    assert laurent == walk_cluster_variables(quiver)[d]
