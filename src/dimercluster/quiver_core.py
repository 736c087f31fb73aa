"""Type-D Dynkin combinatorics: orientations, exchange matrices, roots.

Vertices of the rank-``n`` diagram (``n >= 4``) are ``0..n-1``.  The diagram
is a path ``0 - 1 - ... - (n-3)`` with two extra edges ``(n-3) - (n-2)`` and
``(n-3) - (n-1)``, i.e. vertex ``n-3`` is the branch node and ``n-2``,
``n-1`` are the fork tips.

A quiver here is an orientation of that tree, so it is automatically acyclic.
Sign convention used throughout the package: ``b[i][j] = +1`` exactly when
there is an arrow ``i -> j``.
"""

from __future__ import annotations

import functools

MIN_RANK = 4


def graded_lex_key(e):
    """Sort key of graded-lex order: total degree first, then lexicographic."""
    return (sum(e), e)


def _check_rank(n):
    if n < MIN_RANK:
        raise ValueError("rank must be at least %d, got %d" % (MIN_RANK, n))


def dynkin_edges(n):
    """Undirected edges of the rank-n diagram as sorted tuples."""
    _check_rank(n)
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append((n - 3, n - 1))
    return [tuple(sorted(e)) for e in edges]


def cartan_matrix(n):
    """The Cartan matrix as a tuple of row tuples."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in dynkin_edges(n):
        a[i][j] = a[j][i] = -1
    return tuple(map(tuple, a))


class Quiver:
    """An orientation of the rank-n diagram."""

    def __init__(self, n, arrows):
        self.n = n
        arrows = [tuple(a) for a in arrows]
        _check_rank(n)
        # counted before the diagram is built, which a huge n makes slow
        if len(arrows) != n - 1:
            raise ValueError(
                "the rank-%d diagram has %d edges, got %d arrows" % (n, n - 1, len(arrows))
            )
        required = set(dynkin_edges(n))
        seen = set()
        for t, h in arrows:
            e = tuple(sorted((t, h)))
            if e not in required:
                raise ValueError("(%d, %d) is not an edge of the rank-%d diagram" % (t, h, n))
            if e in seen:
                raise ValueError("edge %r oriented twice" % (e,))
            seen.add(e)
        # n - 1 distinct diagram edges: every edge is oriented
        self.arrows = frozenset(arrows)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.n == other.n
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.n, self.arrows))

    def __repr__(self):
        body = ", ".join("%d>%d" % a for a in sorted(self.arrows))
        return "Quiver(n=%d; %s)" % (self.n, body)

    def arrow_sign(self, i, j):
        """+1 if i -> j, -1 if j -> i, 0 if i and j are not adjacent."""
        if (i, j) in self.arrows:
            return 1
        if (j, i) in self.arrows:
            return -1
        return 0

    def out_neighbors(self, i):
        return sorted(h for t, h in self.arrows if t == i)

    def in_neighbors(self, i):
        return sorted(t for t, h in self.arrows if h == i)

    def neighbors(self, i):
        return sorted(self.out_neighbors(i) + self.in_neighbors(i))

    def exchange_matrix(self):
        """B as a tuple of row tuples: ``b[i][j]`` is ``arrow_sign(i, j)``."""
        n = self.n
        return tuple(tuple(self.arrow_sign(i, j) for j in range(n)) for i in range(n))

    def topological_order(self):
        """Vertex order with every arrow tail before its head."""
        indeg = {v: 0 for v in range(self.n)}
        for _, h in self.arrows:
            indeg[h] += 1
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for h in self.out_neighbors(v):
                indeg[h] -= 1
                if indeg[h] == 0:
                    ready.append(h)
            ready.sort()
        if len(order) != self.n:
            raise ValueError("orientation contains a cycle")  # unreachable on a tree
        return order


def all_orientations(n):
    """Every orientation of the rank-n diagram (2^(n-1) quivers)."""
    edges = dynkin_edges(n)
    out = []
    for mask in range(1 << len(edges)):
        arrows = [
            (b, a) if (mask >> k) & 1 else (a, b)
            for k, (a, b) in enumerate(edges)
        ]
        out.append(Quiver(n, arrows))
    return out


class QuiverSyntaxError(ValueError):
    """Quiver text that does not have the form ``"n=<rank>; t>h, ..."``."""


def parse_quiver(text):
    """Parse ``"n=6; 1>0, 2>1, 3>2, 4>3, 3>5"`` into a Quiver.

    Raises QuiverSyntaxError on malformed text, and ValueError when well-formed
    text does not denote an orientation of the rank-n diagram.
    """
    parts = text.split(";")
    if len(parts) != 2:
        raise QuiverSyntaxError('expected "n=<rank>; t>h, t>h, ..."')
    head, body = parts
    head = head.strip()
    if not head.startswith("n="):
        raise QuiverSyntaxError('quiver text must start with "n=<rank>"')
    try:
        n = int(head[2:])
    except ValueError:
        raise QuiverSyntaxError("rank %r is not an integer" % head[2:]) from None
    arrows = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ">" not in chunk:
            raise QuiverSyntaxError("arrow %r must look like t>h" % chunk)
        t_text, h_text = chunk.split(">", 1)
        try:
            arrows.append((int(t_text), int(h_text)))
        except ValueError:
            raise QuiverSyntaxError("arrow %r must be a pair of integers" % chunk) from None
    return Quiver(n, arrows)


def format_quiver(quiver):
    return "n=%d; %s" % (quiver.n, ", ".join("%d>%d" % a for a in sorted(quiver.arrows)))


# ---- root system -----------------------------------------------------------


def positive_roots(n):
    """All positive roots of the rank-n system, in ascending graded-lex order.

    A fresh list on every call; the roots themselves are computed once per rank.
    """
    return list(_roots(n))


@functools.lru_cache(maxsize=None)
def _roots(n):
    """The positive roots as a tuple, memoized per rank.

    Computed as the reflection-orbit closure of the simple roots: the simple
    reflection at i sends d to d - (A d)_i e_i for the Cartan matrix A, and
    the positive roots are exactly the orbit elements with all entries >= 0.
    """
    # the nonzero entries of each row of A: at most four
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in cartan_matrix(n)]
    simples = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for d in frontier:
            ad = [sum(x * d[j] for j, x in row) for row in rows]
            for i in range(n):
                img = list(d)
                img[i] -= ad[i]
                img = tuple(img)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    roots = [d for d in seen if all(x >= 0 for x in d) and any(d)]
    roots.sort(key=graded_lex_key)
    return tuple(roots)


@functools.lru_cache(maxsize=None)
def _root_set(n):
    return frozenset(_roots(n))


def is_positive_root(n, d):
    d = tuple(int(x) for x in d)
    if len(d) != n:
        return False
    return d in _root_set(n)


def check_root(quiver, d):
    """``d`` as a tuple of ints; ValueError unless it is a positive root."""
    d = tuple(int(x) for x in d)
    if not is_positive_root(quiver.n, d):
        raise ValueError("%r is not a positive root of the rank-%d system" % (d, quiver.n))
    return d
