"""Unit tests for exact Laurent-polynomial arithmetic.

Tags: [TRIVIAL] direct arithmetic identities; [DERIVED] randomized ring-axiom
and division properties with seeded RNG, and a derandomized hypothesis
comparison of the packed-exponent arithmetic with the tuple-keyed reference
in ``reference.py``.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import add_terms, divide_terms, mul_terms

from dimercluster.laurent_poly import (
    EXP_LIMIT,
    ContextError,
    ExactDivisionError,
    LaurentPolynomial,
    divide_exact,
    u_context,
    xy_context,
)


CTX = u_context(3)


def P(terms):
    return LaurentPolynomial(CTX, terms)


def rand_poly(rng, ctx, nterms=4, lo=-2, hi=2, cmax=3):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        exps = tuple(rng.randint(lo, hi) for _ in ctx)
        c = rng.randint(-cmax, cmax)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return LaurentPolynomial(ctx, terms)


# ---- [TRIVIAL] construction and normal form -----------------------------


def test_zero_coefficients_are_dropped():
    assert P({(1, 0, 0): 0}).terms == {}
    assert not P({})
    assert bool(P({(0, 0, 0): 1}))


def test_context_width_enforced():
    with pytest.raises(ContextError):
        LaurentPolynomial(CTX, {(1, 0): 1})


def test_variable_and_monomial_constructors():
    u1 = LaurentPolynomial.variable(CTX, "u1")
    assert u1.terms == {(0, 1, 0): 1}
    assert LaurentPolynomial.monomial(CTX, (0, 0, 0)).terms == {(0, 0, 0): 1}
    assert LaurentPolynomial.monomial(CTX, (2, -1, 0)) == P({(2, -1, 0): 1})
    with pytest.raises(ContextError):
        LaurentPolynomial.monomial(CTX, (1, 0))


def test_context_helpers():
    assert u_context(2) == ("u0", "u1")
    assert xy_context(2) == ("x0", "x1", "y0", "y1")


# ---- [TRIVIAL] arithmetic ------------------------------------------------


def test_add_cancels_to_zero():
    p = P({(1, 2, 0): 5})
    assert (p + P({(1, 2, 0): -5})).terms == {}


def test_mul_collects_cross_terms():
    # (1 + u0) * (1 - u0) = 1 - u0^2
    one = LaurentPolynomial.monomial(CTX, (0, 0, 0))
    u0 = LaurentPolynomial.variable(CTX, "u0")
    prod = (one + u0) * P({(0, 0, 0): 1, (1, 0, 0): -1})
    assert prod == P({(0, 0, 0): 1, (2, 0, 0): -1})


def test_context_mismatch_raises():
    q = LaurentPolynomial.monomial(u_context(2), (0, 0))
    with pytest.raises(ContextError):
        P({}) + q
    with pytest.raises(ContextError):
        P({}) * q


@pytest.mark.parametrize(
    "op",
    [lambda p: p + 1, lambda p: 1 + p, lambda p: p * 3, lambda p: 3 * p],
    ids=["p+1", "1+p", "p*3", "3*p"],
)
def test_an_int_operand_is_a_type_error(op):
    # both operand orders fail alike: the int is not coerced
    with pytest.raises(TypeError):
        op(LaurentPolynomial.monomial(CTX, (0, 0, 0)))


# ---- [TRIVIAL] queries -----------------------------------------------------


def test_min_exponents():
    p = P({(1, -2, 0): 1, (-1, 3, 5): 4})
    assert p.min_exponents() == (-1, -2, 0)
    assert P({}).min_exponents() == (0, 0, 0)


# ---- [TRIVIAL] rendering / serialization -----------------------------------


def test_render_ascending_graded_lex():
    p = P({(0, 0, 0): 1, (1, 0, 0): 1, (1, 1, 2): 2, (0, 1, 0): -1})
    assert p.render() == "1 - u1 + u0 + 2*u0*u1*u2^2"


def test_render_negative_exponents_and_zero():
    assert P({(0, -1, 0): 1}).render() == "u1^-1"
    assert P({}).render() == "0"


def test_to_json_schema():
    p = P({(1, 0, 0): 2})
    doc = p.to_json()
    assert doc["schema"] == 1
    assert doc["variables"] == ["u0", "u1", "u2"]
    assert doc["terms"] == [{"exponents": [1, 0, 0], "coefficient": 2}]


# ---- exact division --------------------------------------------------------


def test_divide_exact_simple():
    # [TRIVIAL] (1 - u0^2) / (1 + u0) = 1 - u0
    one = LaurentPolynomial.monomial(CTX, (0, 0, 0))
    u0 = LaurentPolynomial.variable(CTX, "u0")
    q = divide_exact(P({(0, 0, 0): 1, (2, 0, 0): -1}), one + u0)
    assert q == P({(0, 0, 0): 1, (1, 0, 0): -1})


def test_divide_exact_laurent_denominator():
    # [TRIVIAL] denominators with negative exponents work directly
    num = P({(0, 0, 0): 1, (1, 1, 0): 1})
    den = P({(-1, 0, 0): 1})
    assert divide_exact(num, den) == P({(1, 0, 0): 1, (2, 1, 0): 1})


def test_divide_exact_rejects_inexact():
    one = LaurentPolynomial.monomial(CTX, (0, 0, 0))
    u0 = LaurentPolynomial.variable(CTX, "u0")
    with pytest.raises(ExactDivisionError):
        divide_exact(one + u0, P({(0, 0, 0): 2}))
    with pytest.raises(ExactDivisionError):
        divide_exact(one, P({}))
    # u0^3 + 1 = (u0 + 2)(u0^2 - 2 u0 + 4) - 7: the long division would
    # descend below u0^0, out of the box [0, 2] that an exact quotient fills
    with pytest.raises(ExactDivisionError, match="outside the exponent box"):
        divide_exact(u0 * u0 * u0 + one, u0 + P({(0, 0, 0): 2}))


# ---- [DERIVED] randomized properties ---------------------------------------


def test_ring_axioms_random():
    rng = random.Random(20260813)
    ctx = u_context(3)
    one = LaurentPolynomial.monomial(ctx, (0, 0, 0))
    for _ in range(200):
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx)
        c = rand_poly(rng, ctx)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + LaurentPolynomial(ctx, {}) == a


def test_division_inverts_multiplication_random():
    rng = random.Random(97)
    ctx = u_context(3)
    for _ in range(150):
        q = rand_poly(rng, ctx)
        d = rand_poly(rng, ctx)
        if not d:
            continue
        assert divide_exact(q * d, d) == q


# ---- [DERIVED] packed arithmetic against the tuple-keyed reference ---------


def polys(ctx, min_terms=0):
    exps = st.tuples(*[st.integers(-6, 6)] * len(ctx))
    coeffs = st.integers(-5, 5).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=6).map(
        lambda terms: LaurentPolynomial(ctx, terms)
    )


@st.composite
def poly_pairs(draw):
    """Two polynomials in xy_context(n), n <= 14 (up to 28 variables); b != 0."""
    ctx = xy_context(draw(st.integers(1, 14)))
    return draw(polys(ctx)), draw(polys(ctx, min_terms=1))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(poly_pairs())
def test_packed_arithmetic_equals_reference(pair):
    a, b = pair
    assert (a * b).terms == mul_terms(a.terms, b.terms)
    assert (a + b).terms == add_terms(a.terms, b.terms)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(poly_pairs())
def test_divide_exact_inverts_multiplication(pair):
    a, b = pair
    product = a * b
    assert divide_exact(product, b) == a
    assert divide_terms(product.terms, b.terms) == a.terms


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(poly_pairs())
def test_inexact_division_raises(pair):
    a, b = pair
    if any(c % 2 for c in a.terms.values()):
        # the quotient would be a / 2, which has a non-integer coefficient
        doubled = LaurentPolynomial(b.context, {(0,) * len(b.context): 2}) * b
        with pytest.raises(ExactDivisionError):
            divide_exact(a * b, doubled)
    if len(b.terms) > 1:
        # only monomials are units: no Laurent polynomial times b is one term.
        # The exponent box of 1 / b is empty in a coordinate where b's terms
        # differ, so the first quotient term already falls outside it.
        with pytest.raises(ExactDivisionError, match="outside the exponent box"):
            divide_exact(LaurentPolynomial.monomial(b.context, (0,) * len(b.context)), b)


def test_exponents_past_the_field_range_raise():
    x0 = LaurentPolynomial.variable(CTX, "u0")
    one = LaurentPolynomial.monomial(CTX, (0, 0, 0))
    top = P({(EXP_LIMIT, 0, -EXP_LIMIT): 1})
    assert (top * one).terms == {(EXP_LIMIT, 0, -EXP_LIMIT): 1}
    for factor in (x0, P({(0, 0, -1): 1}), top):
        with pytest.raises(OverflowError):
            top * factor
    with pytest.raises(OverflowError):
        P({(0, EXP_LIMIT + 1, 0): 1}) + one
    half = P({(EXP_LIMIT // 2, 0, 0): 1})
    assert (half * half).terms == {(2 * (EXP_LIMIT // 2), 0, 0): 1}
    with pytest.raises(OverflowError):
        divide_exact(top, one + x0)


def test_division_overflow_names_its_own_limit():
    ctx = xy_context(1)
    num = LaurentPolynomial(ctx, {(10000, 0): 1, (0, 1): 1})
    den = LaurentPolynomial(ctx, {(3500, 0): 1, (0, 0): 1})
    message = "division reach 17000 (numerator bound + 2 * denominator bound) must be below 16384"
    with pytest.raises(OverflowError, match=re.escape(message)):
        divide_exact(num, den)


def test_division_at_the_largest_reach_returns_its_quotient():
    # reach 16381 + 2 * 1 = 2^14 - 1, for the numerator built from its terms
    # and for the same numerator as a product, whose summed box is exact
    ctx = xy_context(1)
    num = LaurentPolynomial(ctx, {(16381, 0): 1, (16381, 1): 1})
    den = LaurentPolynomial(ctx, {(0, 0): 1, (0, 1): 1})
    assert divide_exact(num, den).terms == {(16381, 0): 1}
    product = LaurentPolynomial(ctx, {(16381, 0): 1}) * den
    assert divide_exact(product, den).terms == {(16381, 0): 1}


# ---- [DERIVED] the carried exponent box --------------------------------------


def extremes(poly):
    """Each variable's least and greatest exponent over the terms, zeros for
    the zero polynomial."""
    width = len(poly.context)
    if not poly.terms:
        return (0,) * width, (0,) * width
    low = tuple(min(e[j] for e in poly.terms) for j in range(width))
    high = tuple(max(e[j] for e in poly.terms) for j in range(width))
    return low, high


def test_a_cancelling_sum_reads_its_box_off_its_terms():
    p = P({(1, 0, 0): 1, (0, -2, 3): 1}) + P({(0, -2, 3): -1})
    assert p._box is None
    assert p.min_exponents() == (1, 0, 0)
    assert p._box == ((1, 0, 0), (1, 0, 0))


@st.composite
def programs(draw):
    """Polynomials in xy_context(n), n <= 3, and a list of (op, i, j): the
    value op applies to values i and j (mod the count so far) is appended."""
    ctx = xy_context(draw(st.integers(1, 3)))
    values = draw(st.lists(polys(ctx), min_size=2, max_size=4))
    step = st.tuples(st.sampled_from("+*"), st.integers(0, 15), st.integers(0, 15))
    return values, draw(st.lists(step, max_size=8))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(programs())
def test_the_carried_box_is_each_variables_extreme_exponents(program):
    values, steps = program
    for op, i, j in steps:
        a, b = values[i % len(values)], values[j % len(values)]
        value = a + b if op == "+" else a * b
        # a nonzero product carries its box, and so does a sum of two nonzero
        # operands where no term cancels
        kept = value.terms.keys() == a.terms.keys() | b.terms.keys()
        carried = bool(value) and (op == "*" or bool(a and b and kept))
        assert (value._box is not None) == carried
        if value._box is not None:
            assert value._box == extremes(value)
        values.append(value)
        if b and op == "*":
            quotient = divide_exact(value, b)
            assert quotient == a
            assert quotient._exponent_box() == extremes(a)
