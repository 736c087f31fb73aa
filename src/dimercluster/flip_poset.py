"""The poset of monochromatic configurations under flips.

One poset is one instance (quiver, positive root d): it holds the quiver, d,
the base graph, each element's coefficient (the dict ``coefficients``, keyed
by e) and the x-weight of the minimal matching (``bottom_weight``), and F and
g are read off it (``cluster_invariants.dimer_invariants``).
The constructor is where the root is checked.

Elements are exponent vectors (each standing for its configuration, the
closed form ``config_from_e``), built by breadth-first search upward from the
minimal matching: a flip at tile i moves from e to e + unit_i when every
bw-side of the tile is present.  The base graph proved once, at its
construction (``BaseGraph._check_flips``), that a flip at i adds column i of
the closed form and changes the labelled weight by column i of Ŷ; the poset
trusts the graph it is given.  The minimal matching is
the closed form at e = 0 (both of its routes agree), so by induction along
the search every configuration reached is the closed form of its e, and its
x-weight is ``wt(0) + Ŷ·e``; nothing is re-checked per element.
A configuration joins the poset only if its support keeps differently-marked
corners apart; that check and its cycle count come from one support pass
(``support_summary``), and its coefficient 2^cycles is stored then.  The pass
relies on every corner's total multiplicity being at most 2: the build checks
it once, on the minimal matching, and every flip keeps it.
Excluded configurations are remembered but never expanded: one dict maps
each vector met to its coefficient, or to 0 once excluded, so a candidate
costs one lookup, and ``coefficients`` (in the order found) and
``excluded`` are split off it at the end.  A configuration (a tuple of edge
multiplicities) is kept only while its rank level is being expanded.
``elements``, the members in graded-lex order, is sorted on first use:
``compute`` without ``--explain`` and ``verify`` never read it.  A cover is
one flip, e -> e + unit_i, so the covers are read off the vectors on first
use, not recorded by the search.

The order is the reflexive-transitive closure of the covers, which
coincides with coordinatewise comparison of exponent vectors.  Meets and joins
are computed order-theoretically (principal-ideal comparison over bitmasks,
one candidate each); they equal coordinatewise min/max exactly when those
vectors are themselves members, and drop past them otherwise (the source of
pentagon sublattices).
The bitmasks take O(m^2) bits for m elements, so they are built on the first
order query (``leq``, ``meet``, ``join``), not with the poset.
"""

from __future__ import annotations

import functools

from dimercluster.base_graph import BaseGraph
from dimercluster.mixed_dimer import (
    flip,
    minimal_matching,
    support_summary,
    x_exponents,
)
from dimercluster.quiver_core import check_root, graded_lex_sorted


class FlipPoset:
    def __init__(self, quiver, d, graph=None):
        """ValueError unless d is a positive root of the quiver's rank; graph
        is the quiver's base graph, built here when not given."""
        self.quiver = quiver
        self.d = check_root(quiver, d)
        self.graph = graph if graph is not None else BaseGraph(quiver)
        self._build()

    # ---- construction -------------------------------------------------------

    def _build(self):
        graph, d = self.graph, self.d
        n = graph.n
        labels = graph.node_labels(d)
        marks = {c: labels[v] for c, v in enumerate(graph.corners) if v in labels}
        bottom = (0,) * n
        start = minimal_matching(graph, d)
        # flips keep every corner's total (BaseGraph._check_flips), so the
        # support pass may rely on totals of at most 2 in every configuration
        totals = []
        for ends in graph.incidence:
            total = 0
            for k, _ in ends:
                total += start[k]
            totals.append(total)
        if max(totals) > 2:
            c = totals.index(max(totals))
            raise AssertionError(
                "the minimal matching meets corner %r %d times" % (graph.corners[c], totals[c])
            )
        monochromatic, cycles = support_summary(graph, start, marks)
        if not monochromatic:
            raise AssertionError("minimal matching joins marked corners")
        self.bottom_weight = x_exponents(graph, start)
        # e -> its coefficient, or 0 once excluded: one lookup per candidate
        seen = {bottom: 2 ** cycles}
        # a flip at i needs d_i >= 1 and every bw-side (-1 entry) of tile i present
        tiles = [(i, [k for k, m in graph.flip_deltas[i] if m < 0]) for i in range(n) if d[i]]
        frontier = {bottom: start}
        while frontier:
            nxt = {}
            for e, config in frontier.items():
                for i, sides in tiles:
                    for k in sides:
                        if not config[k]:
                            break
                    else:
                        e2 = e[:i] + (e[i] + 1,) + e[i + 1 :]
                        if e2 in seen:
                            continue
                        config2 = flip(graph, config, i)
                        monochromatic, cycles = support_summary(graph, config2, marks)
                        if not monochromatic:
                            seen[e2] = 0
                            continue
                        seen[e2] = 2 ** cycles
                        nxt[e2] = config2
            frontier = nxt
        self.coefficients = {e: c for e, c in seen.items() if c}
        self.excluded = {e for e, c in seen.items() if not c}

    @functools.cached_property
    def elements(self):
        """The members in graded-lex order, sorted on first use."""
        return graded_lex_sorted(self.coefficients)

    @functools.cached_property
    def covers(self):
        """element -> its members e + unit_i, i descending (graded-lex order),
        read off the vectors on first use.  A member e + unit_i has every
        bw-side of tile i present in e's configuration, so each is one flip
        from e."""
        def ups(e):
            for i in range(len(e) - 1, -1, -1):
                v = e[:i] + (e[i] + 1,) + e[i + 1 :]
                if v in self.coefficients:
                    yield v

        return {e: list(ups(e)) for e in self.elements}

    @functools.cached_property
    def _order(self):
        """(index, down, up), built on the first order query: element ->
        position in ``elements``, and per position the bitmask of the
        elements below it (down) and above it (up)."""
        index = {e: k for k, e in enumerate(self.elements)}
        down = [1 << k for k in range(len(index))]
        up = down[:]
        for k, e in enumerate(self.elements):  # ascending rank: down[k] is complete
            for v in self.covers[e]:
                down[index[v]] |= down[k]
        for k in range(len(index) - 1, -1, -1):
            for v in self.covers[self.elements[k]]:
                up[k] |= up[index[v]]
        return index, down, up

    # ---- order queries ---------------------------------------------------------

    def leq(self, u, v):
        index, down, _ = self._order
        return bool(down[index[tuple(v)]] >> index[tuple(u)] & 1)

    def _bound(self, masks, u, v, highest):
        """The element whose mask is the common mask of u and v, or None.

        Elements are in rank order, so only the highest bit of a common
        down-set can be a meet and only the lowest bit of a common up-set a
        join.
        """
        index = self._order[0]
        common = masks[index[tuple(u)]] & masks[index[tuple(v)]]
        if not common:
            return None
        k = common.bit_length() - 1 if highest else (common & -common).bit_length() - 1
        return self.elements[k] if masks[k] == common else None

    def meet(self, u, v):
        """Greatest common lower bound, or None."""
        return self._bound(self._order[1], u, v, True)

    def join(self, u, v):
        """Least common upper bound, or None."""
        return self._bound(self._order[2], u, v, False)

    def is_lattice(self):
        """(True, None) or (False, offending pair)."""
        for a in self.elements:
            for b in self.elements:
                if a < b and (self.meet(a, b) is None or self.join(a, b) is None):
                    return False, (a, b)
        return True, None

    def require_lattice(self):
        ok, pair = self.is_lattice()
        if not ok:
            raise ValueError("not a lattice: %r and %r have no meet or join" % pair)

    # ---- forbidden-sublattice witnesses ------------------------------------------

    def n5_witness(self):
        """A pentagon: u < v, w incomparable to both, equal meets and joins."""
        self.require_lattice()
        for u in self.elements:
            for v in self.elements:
                if u == v or not self.leq(u, v):
                    continue
                for w in self.elements:
                    if self.leq(w, u) or self.leq(u, w) or self.leq(w, v) or self.leq(v, w):
                        continue
                    if self.meet(u, w) == self.meet(v, w) and self.join(u, w) == self.join(v, w):
                        return {
                            "u": u,
                            "v": v,
                            "w": w,
                            "meet": self.meet(u, w),
                            "join": self.join(u, w),
                        }
        return None

    def m3_witness(self):
        """A diamond: three pairwise-incomparable elements with one common
        meet and one common join."""
        self.require_lattice()
        els = self.elements
        for i, x in enumerate(els):
            for j in range(i + 1, len(els)):
                y = els[j]
                if self.leq(x, y) or self.leq(y, x):
                    continue
                mxy, jxy = self.meet(x, y), self.join(x, y)
                for k in range(j + 1, len(els)):
                    z = els[k]
                    if self.leq(x, z) or self.leq(z, x) or self.leq(y, z) or self.leq(z, y):
                        continue
                    if (
                        self.meet(x, z) == mxy
                        and self.meet(y, z) == mxy
                        and self.join(x, z) == jxy
                        and self.join(y, z) == jxy
                    ):
                        return {"x": x, "y": y, "z": z, "meet": mxy, "join": jxy}
        return None

    # ---- derived data ---------------------------------------------------------------

    def hasse_dot(self):
        """The lines of the Hasse diagram in DOT, one at a time."""
        yield "digraph hasse {"
        yield "  rankdir=BT;"
        for e in self.elements:
            yield '  "%s";' % ",".join(map(str, e))
        for u, ups in self.covers.items():
            for v in ups:
                yield '  "%s" -> "%s";' % (",".join(map(str, u)), ",".join(map(str, v)))
        yield "}"
