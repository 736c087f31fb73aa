"""Exact integer-coefficient Laurent polynomials in named variables.

A polynomial is bound to a *context*: an ordered tuple of variable names such
as ``("x0", ..., "x4", "y0", ..., "y4")``.  Terms are held sparsely as a dict
mapping exponent vectors (tuples of possibly-negative ints, one entry per
context variable) to nonzero integer coefficients.  All arithmetic is exact;
coefficients are arbitrary-precision ints.

Mixing contexts is an error rather than a coercion: the cluster-algebra code
works in two fixed contexts (``u0..u{n-1}`` for F-polynomials and
``x0..y{n-1}`` for Laurent expansions) and silent unification would only hide
bookkeeping bugs.
"""

from __future__ import annotations


class ContextError(ValueError):
    """Raised when operands live in different variable contexts."""


class ExactDivisionError(ArithmeticError):
    """Raised when a quotient is requested that does not exist in the ring."""


def u_context(n):
    return tuple("u%d" % i for i in range(n))


def xy_context(n):
    return tuple("x%d" % i for i in range(n)) + tuple("y%d" % i for i in range(n))


def _graded_lex_key(exps):
    # graded lexicographic: first by total degree, then lexicographically.
    return (sum(exps), exps)


class LaurentPolynomial:
    __slots__ = ("context", "terms", "_hash")

    def __init__(self, context, terms):
        self.context = tuple(context)
        width = len(self.context)
        clean = {}
        for exps, coeff in terms.items():
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != width:
                raise ContextError(
                    "exponent vector %r does not match context of width %d"
                    % (exps, width)
                )
            clean[exps] = coeff
        self.terms = clean
        self._hash = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def one(cls, context):
        return cls.monomial(context, (0,) * len(context))

    @classmethod
    def monomial(cls, context, exps, coeff=1):
        return cls(context, {tuple(exps): coeff})

    @classmethod
    def variable(cls, context, name):
        context = tuple(context)
        exps = [0] * len(context)
        exps[context.index(name)] = 1
        return cls(context, {tuple(exps): 1})

    # ---- basic structure ----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.context, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return "LaurentPolynomial(%s)" % self.render()

    def _check(self, other):
        if self.context != other.context:
            raise ContextError(
                "context mismatch: %r vs %r" % (self.context, other.context)
            )

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = terms.get(exps, 0) + coeff
            if c:
                terms[exps] = c
            elif exps in terms:
                del terms[exps]
        return LaurentPolynomial(self.context, terms)

    def __neg__(self):
        return LaurentPolynomial(
            self.context, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial(
                self.context, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        # classic sparse convolution; fine at the term counts seen here
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = terms.get(e, 0) + c1 * c2
                if c:
                    terms[e] = c
                elif e in terms:
                    del terms[e]
        return LaurentPolynomial(self.context, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            raise ValueError("negative exponent %d" % k)
        result = LaurentPolynomial.one(self.context)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ---- queries --------------------------------------------------------

    def min_exponents(self):
        """Componentwise minimum exponent over all terms (zero poly -> zeros)."""
        if not self.terms:
            return (0,) * len(self.context)
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def leading_term(self):
        """(exps, coeff) maximal in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_graded_lex_key)
        return exps, self.terms[exps]

    # ---- rendering ------------------------------------------------------

    def sorted_terms(self):
        """Terms in ascending graded-lex order, as (exps, coeff) pairs."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_graded_lex_key)]

    def render(self):
        """Deterministic text form, e.g. ``1 + u0 + 2*u0*u1*u2^2``."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.context, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append("%s^%d" % (name, e))
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "%d*%s" % (mag, "*".join(factors))
            pieces.append((coeff < 0, body))
        out = []
        for i, (neg, body) in enumerate(pieces):
            if i == 0:
                out.append("-" + body if neg else body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def to_json(self):
        return {
            "schema": 1,
            "variables": list(self.context),
            "terms": [
                {"exponents": list(e), "coefficient": c}
                for e, c in self.sorted_terms()
            ],
        }


DIVISION_STEP_LIMIT = 200000


def divide_exact(numerator, denominator):
    """Quotient of two Laurent polynomials when it exists in the ring.

    Repeatedly cancels the graded-lex leading term.  Exchange relations always
    divide exactly; a non-exact division here signals an implementation bug
    upstream, so both failure modes (non-divisible coefficient, step overrun)
    raise ExactDivisionError rather than returning junk.
    """
    numerator._check(denominator)
    if not denominator:
        raise ExactDivisionError("division by zero polynomial")
    ctx = numerator.context
    d_exps, d_coeff = denominator.leading_term()
    remainder = numerator
    quotient_terms = {}
    steps = 0
    while remainder:
        steps += 1
        if steps > DIVISION_STEP_LIMIT:
            raise ExactDivisionError("division did not terminate (inexact input?)")
        r_exps, r_coeff = remainder.leading_term()
        q, r = divmod(r_coeff, d_coeff)
        if r:
            raise ExactDivisionError(
                "leading coefficient %d not divisible by %d" % (r_coeff, d_coeff)
            )
        t_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        quotient_terms[t_exps] = quotient_terms.get(t_exps, 0) + q
        t = LaurentPolynomial.monomial(ctx, t_exps, q)
        remainder = remainder - t * denominator
    return LaurentPolynomial(ctx, quotient_terms)
