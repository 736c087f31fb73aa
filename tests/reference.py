"""Reference routes that only the tests use.

Each restates, by a second route, a quantity the package computes, so that
tests can compare the two:

* ``config_from_e_by_flips``: the configuration for e by a flip sequence
  from the minimal matching, against the closed-form multiplicities;
* ``component_charges``: the closed-form oracle's charge count per component
  of S, against the cycle count of the dimer configuration;
* ``acceptable_evectors``: the closed-form support, against the poset;
* ``add_terms``, ``mul_terms``, ``leading_term`` and ``divide_terms``: Laurent
  arithmetic on dicts keyed by exponent tuples, as the package did it before
  exponents were packed into ints, against ``LaurentPolynomial``.
"""

from dimercluster.laurent_poly import DIVISION_STEP_LIMIT, ExactDivisionError
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


def add_terms(a, b):
    """a + b for {exponent tuple: coefficient} dicts."""
    terms = dict(a)
    for exps, coeff in b.items():
        c = terms.get(exps, 0) + coeff
        if c:
            terms[exps] = c
        elif exps in terms:
            del terms[exps]
    return terms


def mul_terms(a, b):
    """a * b by the sparse convolution, one tuple per pair of terms."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = terms.get(e, 0) + c1 * c2
            if c:
                terms[e] = c
            elif e in terms:
                del terms[e]
    return terms


def leading_term(terms):
    """(exps, coeff) maximal in graded-lex order."""
    exps = max(terms, key=lambda e: (sum(e), e))
    return exps, terms[exps]


def divide_terms(numerator, denominator):
    """The exact quotient by cancelling the leading term of a copied remainder
    at every step; ExactDivisionError when there is none."""
    if not denominator:
        raise ExactDivisionError("division by zero polynomial")
    d_exps, d_coeff = leading_term(denominator)
    remainder = numerator
    quotient = {}
    steps = 0
    while remainder:
        steps += 1
        if steps > DIVISION_STEP_LIMIT:
            raise ExactDivisionError("division did not terminate (inexact input?)")
        r_exps, r_coeff = leading_term(remainder)
        q, r = divmod(r_coeff, d_coeff)
        if r:
            raise ExactDivisionError(
                "leading coefficient %d not divisible by %d" % (r_coeff, d_coeff)
            )
        t_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        quotient[t_exps] = quotient.get(t_exps, 0) + q
        product = mul_terms({t_exps: -q}, denominator)
        remainder = add_terms(remainder, product)
    return quotient
