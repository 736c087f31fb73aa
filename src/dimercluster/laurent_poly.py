"""Exact integer-coefficient Laurent polynomials in named variables.

A polynomial is bound to a *context*: an ordered tuple of variable names such
as ``("x0", ..., "x4", "y0", ..., "y4")``.  Its public view, ``terms``, is a
sparse dict mapping exponent vectors (tuples of possibly-negative ints, one
entry per context variable) to nonzero integer coefficients; ``coefficient``,
``render`` and ``to_json`` read it.  ``to_json`` is the schema-1 JSON document
as a tree, one ``{"coefficient", "exponents"}`` row per term; the CLI writes
the same bytes without building the rows (``cli._write_rows``), and the tree
is what the mismatch lists of ``verify`` and perfbench's answer check read.
The arithmetic is what cluster variables need: ``+``, ``*`` of two
polynomials, and ``divide_exact`` for the one exact division of an exchange
relation.  All of it is exact; coefficients are arbitrary-precision ints.

Arithmetic runs on a second, private view of the same terms, with each
exponent vector packed into one int: a signed 16-bit field per variable,
the first variable most significant, under a top field holding the total
degree.  Int order is then graded-lex order, and the exponents of a product
of monomials are the sum of their keys.  A polynomial built from tuples
(``LaurentPolynomial(ctx, terms)``) is packed the first time arithmetic
touches it; one built by arithmetic decodes its tuple view the first time it
is read.  Each polynomial carries its exponent box, the least and greatest
exponent of each variable over its terms: ``*`` adds the boxes (the Newton
polytope of a product is the Minkowski sum of its factors'), ``+`` takes
their componentwise min and max, and a sum whose terms cancel reads its box
off its terms when next asked.  The largest absolute exponent is read off
the box, so an operation whose result could leave the field range raises
OverflowError instead of wrapping.

``divide_exact`` cancels leading terms in place in one remainder dict, taking
them from a max-heap of packed keys (Johnson, SIGSAM Bull. 1974; Monagan and
Pearce, CASC 2007).

Mixing contexts is an error rather than a coercion: the cluster-algebra code
works in two fixed contexts (``u0..u{n-1}`` for F-polynomials and
``x0..y{n-1}`` for Laurent expansions) and silent unification would only hide
bookkeeping bugs.
"""

from __future__ import annotations

import functools
import heapq
import operator
import struct

from dimercluster.quiver_core import graded_lex_sorted


class ContextError(ValueError):
    """Raised when operands live in different variable contexts."""


class ExactDivisionError(ArithmeticError):
    """Raised when a quotient is requested that does not exist in the ring."""


# Every instance of rank n names the same variables, so each rank's context
# tuple is built once; a tuple cannot be changed by the callers sharing it.
@functools.lru_cache(maxsize=None)
def u_context(n):
    return tuple("u%d" % i for i in range(n))


@functools.lru_cache(maxsize=None)
def xy_context(n):
    return tuple("x%d" % i for i in range(n)) + tuple("y%d" % i for i in range(n))


# ---- packed exponent vectors -------------------------------------------------

# Each exponent sits in a signed 16-bit field; a packed polynomial's exponents
# all lie within +-EXP_LIMIT.
EXP_LIMIT = (1 << 15) - 1


class _Layout:
    """The packing of exponent vectors of one width.

    The key of e is ``sum(e) << shift`` plus ``sum(e_i << 16 * (width-1-i))``.
    Adding ``bias`` (``2^15`` in every field) makes each field non-negative,
    which is how keys are decoded and range-checked.
    """

    __slots__ = ("shift", "low_mask", "bias", "fields", "nbytes")

    def __init__(self, width):
        self.shift = 16 * width
        self.low_mask = (1 << self.shift) - 1
        self.bias = sum(1 << (16 * i + 15) for i in range(width))
        self.fields = struct.Struct(">%dh" % width)
        self.nbytes = 2 * width

    def encode(self, exps):
        biased = int.from_bytes(self.fields.pack(*exps), "big") ^ self.bias
        return (sum(exps) << self.shift) + biased - self.bias

    def decode(self, key):
        low = ((key + self.bias) & self.low_mask) ^ self.bias
        return self.fields.unpack(low.to_bytes(self.nbytes, "big"))

    def nonnegative(self, key):
        """Whether every exponent of ``key`` is >= 0, for a key whose
        exponents lie within the field range."""
        return (key + self.bias) & self.bias == self.bias


@functools.lru_cache(maxsize=None)
def _layout(width):
    return _Layout(width)


def _box_bound(box):
    """The largest absolute exponent in an exponent box."""
    return max(map(abs, box[0] + box[1]), default=0)


def _overflow(bound):
    return OverflowError(
        "exponents up to %d would leave the field range +-%d" % (bound, EXP_LIMIT)
    )


class LaurentPolynomial:
    __slots__ = ("context", "_terms", "_packed", "_box")

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
        self._terms = clean
        self._packed = None
        self._box = None

    @classmethod
    def _build(cls, context, terms=None, packed=None, box=None):
        """A polynomial from a clean tuple view, a packed view, or both, with
        its exponent box when known; nothing is re-validated."""
        poly = object.__new__(cls)
        poly.context = context
        poly._terms = terms
        poly._packed = packed
        poly._box = box
        return poly

    # ---- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, context, exps):
        """The monomial with exponent vector exps and coefficient 1, packed
        when arithmetic first touches it."""
        context, exps = tuple(context), tuple(exps)
        if len(exps) != len(context):
            raise ContextError(
                "exponent vector %r does not match context of width %d" % (exps, len(context))
            )
        return cls._build(context, {exps: 1}, box=(exps, exps))

    @classmethod
    def variable(cls, context, name):
        context = tuple(context)
        exps = [0] * len(context)
        exps[context.index(name)] = 1
        return cls.monomial(context, exps)

    # ---- the two views ------------------------------------------------

    @property
    def terms(self):
        """{exponent tuple: coefficient}, decoded once from the packed view."""
        if self._terms is None:
            decode = _layout(len(self.context)).decode
            self._terms = {decode(k): c for k, c in self._packed.items()}
        return self._terms

    def _pack(self):
        """{packed key: coefficient}, encoded once from the tuple view."""
        if self._packed is None:
            bound = _box_bound(self._exponent_box())
            if bound > EXP_LIMIT:
                raise _overflow(bound)
            encode = _layout(len(self.context)).encode
            self._packed = {encode(e): c for e, c in self._terms.items()}
        return self._packed

    def _exponent_box(self):
        """(low, high): each variable's least and greatest exponent over the
        terms, zeros for the zero polynomial; read off the terms once when
        not carried."""
        if self._box is None:
            cols = list(zip(*self.terms)) or [(0,)] * len(self.context)
            self._box = (tuple(map(min, cols)), tuple(map(max, cols)))
        return self._box

    # ---- basic structure ----------------------------------------------

    def __bool__(self):
        return bool(self._terms if self._packed is None else self._packed)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

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
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self._pack())
        get = terms.get
        box = None
        if self and other:  # a zero operand's box of zeros holds no extreme
            (la, ha), (lb, hb) = self._exponent_box(), other._exponent_box()
            box = (tuple(map(min, la, lb)), tuple(map(max, ha, hb)))
        for k, c in other._pack().items():
            c = get(k, 0) + c
            if c:
                terms[k] = c
            else:
                del terms[k]
                box = None  # a cancelled term may have held an extreme
        return LaurentPolynomial._build(self.context, packed=terms, box=box)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check(other)
        a, b = self._pack(), other._pack()
        (la, ha), (lb, hb) = self._exponent_box(), other._exponent_box()
        box = (tuple(map(operator.add, la, lb)), tuple(map(operator.add, ha, hb)))
        bound = _box_bound(box)
        if bound > EXP_LIMIT:
            raise _overflow(bound)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a monomial shifts every key; no two products meet
            ((kb, cb),) = b.items()
            terms = {k + kb: c * cb for k, c in a.items()}
        else:
            terms = {}
            get = terms.get
            for kb, cb in b.items():
                for k, c in a.items():
                    k += kb
                    terms[k] = get(k, 0) + c * cb
            terms = {k: c for k, c in terms.items() if c}
        # a nonzero product attains the summed box; a zero one reads zeros
        return LaurentPolynomial._build(self.context, packed=terms, box=box if terms else None)

    # ---- queries --------------------------------------------------------

    def min_exponents(self):
        """Componentwise minimum exponent over all terms (zero poly -> zeros)."""
        return self._exponent_box()[0]

    # ---- rendering ------------------------------------------------------

    def sorted_terms(self):
        """Terms in ascending graded-lex order, as (exps, coeff) pairs."""
        return [(e, self.terms[e]) for e in graded_lex_sorted(self.terms)]

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
        """The schema-1 document as a tree: "variables" and the "terms" in
        graded-lex order, each a {"coefficient", "exponents"} row.  The CLI
        prints the same bytes from the polynomial itself."""
        return {
            "schema": 1,
            "variables": list(self.context),
            "terms": [
                {"exponents": list(e), "coefficient": c}
                for e, c in self.sorted_terms()
            ],
        }


DIVISION_STEP_LIMIT = 200000

# Division needs its reach, numerator bound + 2 * denominator bound, below
# this.  A popped key is a numerator key or a denominator key plus a quotient
# term inside the box (exponents at most numerator + denominator bound), so
# no remainder exponent needs a test per step: each lies within the reach,
# and a candidate quotient term minus a box corner within twice the reach.
_DIVISION_RANGE = 1 << 14


def divide_exact(numerator, denominator):
    """Quotient of two Laurent polynomials when it exists in the ring.

    Repeatedly cancels the graded-lex leading term of one remainder dict,
    updated in place; leading terms come from a max-heap of packed keys, and
    a popped key no longer in the remainder has cancelled and is skipped.
    An exact quotient has every exponent j within
    ``[min_num_j - min_den_j, max_num_j - max_den_j]`` (the Newton polytope
    of a product is the Minkowski sum of those of its factors), so a
    quotient term outside that box ends an inexact division at once.  Both
    operands' boxes are the ones they carry, so no term is decoded but the
    quotient's.
    Exchange relations always divide exactly; a non-exact division here
    signals an implementation bug upstream, so every failure mode
    (non-divisible coefficient, a quotient term outside the box, step
    overrun) raises ExactDivisionError rather than returning junk.
    """
    numerator._check(denominator)
    if not denominator:
        raise ExactDivisionError("division by zero polynomial")
    remainder = dict(numerator._pack())
    den = denominator._pack()
    num_box, den_box = numerator._exponent_box(), denominator._exponent_box()
    reach = _box_bound(num_box) + 2 * _box_bound(den_box)
    if reach >= _DIVISION_RANGE:
        raise OverflowError(
            "division reach %d (numerator bound + 2 * denominator bound) must be below %d"
            % (reach, _DIVISION_RANGE)
        )
    layout = _layout(len(numerator.context))
    low = layout.encode([a - b for a, b in zip(num_box[0], den_box[0])])
    high = layout.encode([a - b for a, b in zip(num_box[1], den_box[1])])
    d_key = max(den)
    d_coeff = den[d_key]
    rest = [(k, c) for k, c in den.items() if k != d_key]
    heap = [-k for k in remainder]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, remainder.get
    quotient = {}
    steps = 0
    while remainder:
        r_key = -pop(heap)
        r_coeff = remainder.pop(r_key, 0)
        if not r_coeff:
            continue
        steps += 1
        if steps > DIVISION_STEP_LIMIT:
            raise ExactDivisionError("division did not terminate (inexact input?)")
        t_key = r_key - d_key
        if not (layout.nonnegative(t_key - low) and layout.nonnegative(high - t_key)):
            raise ExactDivisionError("quotient term outside the exponent box (inexact input)")
        q, r = divmod(r_coeff, d_coeff)
        if r:
            raise ExactDivisionError(
                "leading coefficient %d not divisible by %d" % (r_coeff, d_coeff)
            )
        quotient[t_key] = q
        for k, c in rest:
            k += t_key
            c *= q
            old = get(k)
            if old is None:
                remainder[k] = -c
                push(heap, -k)
            elif old == c:
                del remainder[k]
            else:
                remainder[k] = old - c
    # decoded once, here; the quotient's box is read off these terms when asked
    exps = map(layout.decode, quotient)
    return LaurentPolynomial._build(
        numerator.context, terms=dict(zip(exps, quotient.values())), packed=quotient
    )
