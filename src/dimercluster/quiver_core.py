"""Type-D Dynkin combinatorics: orientations and roots.

Vertices of the rank-``n`` diagram (``n >= 4``) are ``0..n-1``.  The diagram
is a path ``0 - 1 - ... - (n-3)`` with two extra edges ``(n-3) - (n-2)`` and
``(n-3) - (n-1)``, i.e. vertex ``n-3`` is the branch node and ``n-2``,
``n-1`` are the fork tips.  ``dynkin_edges`` is the diagram's only
statement: every reader of its adjacency takes the tree from it, or from a
quiver's arrows.

A quiver here is an orientation of that tree, so it is acyclic; its arrows
are its one statement.  Sign convention used throughout the package: its
exchange matrix has ``b[i][j] = +1`` exactly when there is an arrow ``i -> j``.

The n(n-1) positive roots have a closed form, stated once in the table
``_PATH_RUNS``: ``_roots`` lists them from it, not as the reflection orbit of
the simple roots, and ``is_positive_root`` tests one vector against it in
O(n), so a long quiver's root is checked without listing the roots.
"""

from __future__ import annotations

import functools
import itertools

MIN_RANK = 4


def graded_lex_sorted(items, key=None):
    """A new list of items in graded-lex order of ``key(item)`` (the item
    itself by default): total degree first, then lexicographic.  A
    lexicographic sort and then a stable one by degree, so no
    (degree, vector) pair is held per item."""
    out = sorted(items, key=key)
    out.sort(key=sum if key is None else lambda item: sum(key(item)))
    return out


def _check_rank(n):
    if n < MIN_RANK:
        raise ValueError("rank must be at least %d, got %d" % (MIN_RANK, n))


@functools.lru_cache(maxsize=None)
def dynkin_edges(n):
    """Undirected edges of the rank-n diagram as ascending pairs (u, v), one
    per vertex v >= 1 in index order: u is v's one earlier neighbour, v - 1,
    or n - 3 for the fork tip n - 1.  A tuple, built once per rank."""
    _check_rank(n)
    return tuple((i, i + 1) for i in range(n - 2)) + ((n - 3, n - 1),)


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
        return "Quiver(%s)" % format_quiver(self)

    def tips_swapped(self):
        """σQ: this orientation with the fork tips n - 2 and n - 1 exchanged,
        the image of Q under the diagram automorphism σ that swaps them."""
        n = self.n
        swap = {n - 2: n - 1, n - 1: n - 2}
        return Quiver(n, [(swap.get(t, t), swap.get(h, h)) for t, h in self.arrows])

    def reversed(self):
        """ρQ = Q^op: this orientation with every arrow reversed."""
        return Quiver(self.n, [(h, t) for t, h in self.arrows])

    def orbit(self):
        """Q's orbit under ⟨σ, ρ⟩, σ the tip swap and ρ the reversal of every
        arrow: Q, σQ, ρQ and σρQ, each once and in that order, as
        (member, (swap, reverse)) pairs whose flags say whether the member
        is Q with its tips swapped and with its arrows reversed.  ρ and σρ
        fix no orientation (both turn the path edge (0, 1) round) and
        σρ = ρσ, so the orbit has 4 members, or 2 when σQ = Q."""
        swapped = self.tips_swapped()
        members = {}
        for reverse, swap in itertools.product((False, True), repeat=2):
            q = swapped if swap else self
            members.setdefault(q.reversed() if reverse else q, (swap, reverse))
        return tuple(members.items())

    def topological_order(self):
        """Vertex order with every arrow tail before its head, the smallest
        ready vertex first; a tree's orientation has no cycle to stall it."""
        heads = [[] for _ in range(self.n)]
        indeg = [0] * self.n
        for t, h in self.arrows:
            heads[t].append(h)
            indeg[h] += 1
        ready = [v for v in range(self.n) if not indeg[v]]
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for h in heads[v]:
                indeg[h] -= 1
                if not indeg[h]:
                    ready.append(h)
            ready.sort()
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


def parse_int(text):
    """``int(text)``, refusing the underscores and non-ASCII digits it reads."""
    if "_" in text or not text.strip().isascii():
        raise ValueError("invalid integer %r" % text)
    return int(text)


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
        n = parse_int(head[2:])
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
            arrows.append((parse_int(t_text), parse_int(h_text)))
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


# The value runs of d_0 .. d_{n-3}, leading zeros dropped, that each pair of
# fork-tip entries (d_{n-2}, d_{n-1}) admits in a positive root: without a
# tip, one run of 1s; with one tip, none or one ending at n - 3; with both,
# 1s ending at n - 3 or 1s then 2s up to n - 3.
_PATH_RUNS = {
    (0, 0): ((1,), (1, 0)),
    (1, 0): ((), (1,)),
    (0, 1): ((), (1,)),
    (1, 1): ((1,), (1, 2)),
}


@functools.lru_cache(maxsize=None)
def _roots(n):
    """The positive roots as a tuple, memoized per rank: for each tip pair
    and each run pattern it admits in ``_PATH_RUNS``, every placement of the
    pattern's runs, each non-empty, after any leading zeros so that the last
    run ends at n - 3."""
    _check_rank(n)
    m = n - 2  # the entries d_0 .. d_{n-3}
    roots = []
    for tips, patterns in _PATH_RUNS.items():
        for runs in patterns:
            for starts in itertools.combinations(range(m), len(runs)):
                path = (0,) * m
                for s, x in zip(starts, runs):
                    path = path[:s] + (x,) * (m - s)
                roots.append(path + tips)
    return tuple(graded_lex_sorted(roots))


def is_positive_root(n, d):
    """Whether d is a positive root of the rank-n system, in O(n) from the
    closed form (``_PATH_RUNS``), without listing the roots.  The entries
    are tested as given: a non-integral one is no root."""
    _check_rank(n)
    d = tuple(d)
    if len(d) != n:
        return False
    runs = tuple(x for x, _ in itertools.groupby(d[: n - 2]))
    if runs[:1] == (0,):
        runs = runs[1:]
    return runs in _PATH_RUNS.get(d[n - 2 :], ())


def check_root(quiver, d):
    """``d`` as a tuple of ints; ValueError unless it is a positive root."""
    d = tuple(d)
    if not is_positive_root(quiver.n, d):
        raise ValueError("%r is not a positive root of the rank-%d system" % (d, quiver.n))
    return tuple(map(int, d))
