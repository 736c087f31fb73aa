"""Reference routes that only the tests use.

Each restates, by a second route, a quantity the package computes, so that
tests can compare the two:

* ``config_from_e_by_flips``: the configuration for e by a flip sequence
  from the minimal matching, against the closed-form multiplicities;
* ``component_charges``: the closed-form oracle's charge count per component
  of S, against the cycle count of the dimer configuration;
* ``acceptable_evectors``: the closed-form support, against the poset.
"""

from dimercluster.mixed_dimer import flip, minimal_matching
from dimercluster.tran_oracle import _critical_charges, _s_components, tran_f_polynomial


def config_from_e_by_flips(graph, d, e):
    """Flip tile i e_i times, i ascending; negative multiplicities are
    tolerated mid-sequence and must all cancel by the end."""
    config = minimal_matching(graph, d)
    for i in range(graph.n):
        for _ in range(e[i]):
            config = flip(graph, config, i)
    if any(m < 0 for m in config.values()):
        raise ValueError("flip sequence for %r left negative multiplicities" % (e,))
    return config


def component_charges(quiver, d, e):
    """Critical-arrow counts per component of S = {i : (d_i, e_i) = (2, 1)}.

    Returns {sorted component tuple: charge count}; a count >= 2 means the
    monomial u^e is killed, count 0 doubles the coefficient.
    """
    comps = _s_components(quiver.n, d, e)
    charges = _critical_charges(quiver, d, e, comps)
    return {tuple(sorted(comp)): c for comp, c in charges.items()}


def acceptable_evectors(quiver, d):
    """All e with nonzero coefficient, ascending graded-lex."""
    return sorted(tran_f_polynomial(quiver, d).terms, key=lambda e: (sum(e), e))
