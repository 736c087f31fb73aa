"""Frozen golden values shared across test modules.

Three pinned instances are used throughout:

* ``QA`` (rank 6) with root ``D6``: the fully worked linear-orientation
  example.  Its F-polynomial was re-derived by hand from the exponent-vector
  conditions ([DERIVED]).  The published data for this instance lists the
  monomial ``u^(1,1,2,2,0,1)`` twice, but the exponent-vector conditions give
  it coefficient 1, so the support and coefficients below are the corrected
  ones; ``F_QA_DUPLICATE_FIX`` pins that monomial.
* ``QB`` (rank 6) with the same root: branch-heavy orientation; weight and
  g-vector goldens ([PAPER], cross-verified by hand against the conditions).
* ``QC`` (rank 5) with root ``D5``: the instance with a complete published
  13-term F-polynomial, g-vector, and Laurent expansion ([PAPER]; every term
  re-derived by hand, two display typos in intermediate steps ledgered).
"""

from dimercluster.quiver_core import Quiver

QA = Quiver(6, [(1, 0), (2, 1), (3, 2), (4, 3), (3, 5)])
QB = Quiver(6, [(1, 0), (1, 2), (2, 3), (3, 4), (3, 5)])
QC = Quiver(5, [(1, 0), (2, 1), (3, 2), (2, 4)])

D6 = (1, 1, 2, 2, 1, 1)
D5 = (1, 1, 2, 1, 1)

# ---- rank-5 instance (QC, D5) ----------------------------------------------

# [PAPER] 13-term F-polynomial: exponent vector -> coefficient
F_QC = {
    (0, 0, 0, 0, 0): 1,
    (1, 0, 0, 0, 0): 1,
    (0, 0, 0, 0, 1): 1,
    (1, 1, 0, 0, 0): 1,
    (1, 0, 0, 0, 1): 1,
    (0, 0, 1, 0, 1): 1,
    (1, 1, 0, 0, 1): 1,
    (1, 1, 1, 0, 0): 1,
    (1, 0, 1, 0, 1): 1,
    (1, 1, 1, 0, 1): 2,
    (1, 1, 1, 1, 1): 1,
    (1, 1, 2, 0, 1): 1,
    (1, 1, 2, 1, 1): 1,
}

# [DERIVED] g-vector — the published value for this instance has a sign error
# in coordinate 3 (no orientation of the rank-5 diagram reproduces it); this
# is the value forced by the expansion's coefficient-free term.
G_QC = (-1, 0, 0, 1, -1)

# [PAPER] published g-vector for the same instance (provably wrong; kept for
# the strict-xfail acceptance clause).
G_QC_PUBLISHED = (-1, 0, 0, -1, -1)

# [DERIVED] full Laurent expansion, hand-computed as x^g * F(yhat):
# (x-exponents, y-exponents, coefficient)
LAURENT_QC = [
    ((-1, 0, 0, 1, -1), (0, 0, 0, 0, 0), 1),
    ((-1, -1, 0, 1, -1), (1, 0, 0, 0, 0), 1),
    ((-1, 0, -1, 1, -1), (0, 0, 0, 0, 1), 1),
    ((0, -1, -1, 1, -1), (1, 1, 0, 0, 0), 1),
    ((-1, -1, -1, 1, -1), (1, 0, 0, 0, 1), 1),
    ((-1, 1, -1, 0, 0), (0, 0, 1, 0, 1), 1),
    ((0, -1, -2, 1, -1), (1, 1, 0, 0, 1), 1),
    ((0, 0, -1, 0, 0), (1, 1, 1, 0, 0), 1),
    ((-1, 0, -1, 0, 0), (1, 0, 1, 0, 1), 1),
    ((0, 0, -2, 0, 0), (1, 1, 1, 0, 1), 2),
    ((0, 0, -1, 0, 0), (1, 1, 1, 1, 1), 1),
    ((0, 1, -2, -1, 1), (1, 1, 2, 0, 1), 1),
    ((0, 1, -1, -1, 1), (1, 1, 2, 1, 1), 1),
]

# [DERIVED] hatted coefficients for QC as xy-context exponent vectors
YHAT_QC = [
    (0, -1, 0, 0, 0, 1, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, -1, 1, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, -1, 0, 0, 0, 0, 0, 0, 1),
]

# [DERIVED] flip-poset cover relations between exponent vectors (13 elements)
POSET_COVERS_QC = {
    (0, 0, 0, 0, 0): [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1)],
    (1, 0, 0, 0, 0): [(1, 1, 0, 0, 0), (1, 0, 0, 0, 1)],
    (0, 0, 0, 0, 1): [(1, 0, 0, 0, 1), (0, 0, 1, 0, 1)],
    (1, 1, 0, 0, 0): [(1, 1, 1, 0, 0), (1, 1, 0, 0, 1)],
    (1, 0, 0, 0, 1): [(1, 1, 0, 0, 1), (1, 0, 1, 0, 1)],
    (0, 0, 1, 0, 1): [(1, 0, 1, 0, 1)],
    (1, 1, 0, 0, 1): [(1, 1, 1, 0, 1)],
    (1, 1, 1, 0, 0): [(1, 1, 1, 0, 1)],
    (1, 0, 1, 0, 1): [(1, 1, 1, 0, 1)],
    (1, 1, 1, 0, 1): [(1, 1, 1, 1, 1), (1, 1, 2, 0, 1)],
    (1, 1, 1, 1, 1): [(1, 1, 2, 1, 1)],
    (1, 1, 2, 0, 1): [(1, 1, 2, 1, 1)],
}

# [DERIVED] a pentagon (N5 sublattice) witness inside the QC poset:
# u < v, w incomparable to both, equal meets and joins.
N5_WITNESS_QC = {
    "u": (1, 0, 0, 0, 1),
    "v": (1, 0, 1, 0, 1),
    "w": (1, 1, 1, 0, 0),
    "meet": (1, 0, 0, 0, 0),
    "join": (1, 1, 1, 0, 1),
}

# ---- rank-6 linear-orientation instance (QA, D6) ----------------------------

# [DERIVED] corrected F-polynomial facts: 24 distinct monomials summing to 28,
# with exactly these four coefficient-2 exponent vectors.
F_QA_TERM_COUNT = 24
F_QA_AT_ONES = 28
F_QA_COEFF2 = [
    (1, 1, 1, 0, 0, 0),
    (1, 1, 1, 0, 0, 1),
    (1, 1, 1, 1, 0, 1),
    (1, 1, 2, 1, 0, 1),
]
# [DERIVED] the corrected coefficient-1 monomial that published data doubles
F_QA_DUPLICATE_FIX = (1, 1, 2, 2, 0, 1)

# [DERIVED] g-vector for (QA, D6)
G_QA = (-1, 0, -1, 1, 1, -1)

# [DERIVED] minimal-matching weight for (QA, D6): exponents of x
WT_MIN_QA = (0, 1, 1, 3, 2, 0)

# [DERIVED] tiles flippable from the minimal matching for (QA, D6)
FLIPPABLE_MIN_QA = {0, 2, 5}

# [DERIVED] the exponent vector killed by the two-label rule for (QA, D6)
POLY_EXCLUDED_QA = (0, 0, 1, 1, 0, 0)

# ---- rank-6 branch-heavy instance (QB, D6) ----------------------------------

# [PAPER] minimal-matching weight: x1^3 x2^2 x3^2
WT_MIN_QB = (0, 3, 2, 2, 0, 0)

# [PAPER] g-vector
G_QB = (-1, 2, 0, 0, -1, -1)

# [PAPER] coefficient-2 monomial u2 u3^2 u4 u5
COEFF2_E_QB = (0, 0, 1, 2, 1, 1)

# ---- seed counts -------------------------------------------------------------

# [DERIVED] unlabeled-seed counts for the full exchange graph
SEED_COUNTS = {4: 50, 5: 182, 6: 672}
