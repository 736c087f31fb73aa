"""Seeded command streams for the benchmark workloads.

Each workload is an endless stream of ``dimercluster`` CLI commands made only
from the workload seed.  The root system and the quiver text are generated
here, independently of the package, so a change to the package cannot change
which commands a seed produces.

Vertex labels follow the package's convention: the rank-n diagram is the path
``0 - 1 - ... - (n-2)`` with one more edge ``(n-3) - (n-1)``.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

# One CLI call.  ``root`` is None and ``box`` is the sum over all instances for
# the sweep; ``instances`` is how many (quiver, root) answers the call gives.
# A timed run stops only after a command that closes a round, so every run
# holds whole rounds.
Command = namedtuple("Command", "args quiver rank root box instances closes_round")

SWEEP_RANK = 6
COMPUTE_RANKS = (12, 13, 14)
# Roots whose box prod(d_i + 1) exceeds this are left out of `compute`: above
# it single queries reach tens of seconds (posets of 10^4 elements and more)
# and the tran check of the answer grows with the box.
COMPUTE_MAX_BOX = 4096
# The round `verify-tran` cycles through, one query each: per arrow in
# dynkin_edges order, ">" is a -> b and "<" is b -> a.  Today every query
# verifies all roots of its orientation, so the orientation alone sets its
# cost (about 2.5 s rank 9 linear, 4.5 s rank 10 linear, up to 11 s for the
# alternating rank-9 one) and the root does not.  Two cheap rank-9 queries
# per rank-10 one give several samples per run, and keep the median among
# the rank-9 queries and the 90th percentile among the rank-10 ones, away
# from the jump between the two.
VERIFY_TRAN_ROUND = ((9, ">>>>>>>>"), (9, ">>>>>>>>"), (10, ">>>>>>>>>"))

# Commands per traced run: a fixed prefix of the stream, so calls repeat.
TRACE_COMMANDS = {"sweep": 1, "compute": 150, "verify-tran": len(VERIFY_TRAN_ROUND)}


def dynkin_edges(n):
    return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]


def positive_roots(n):
    """Positive roots of the rank-n system, ascending by (height, vector).

    Closure of the simple roots under "add a simple root a_k when the pairing
    (d, a_k) is -1", which generates every positive root of a simply-laced
    system.
    """
    neighbours = {i: set() for i in range(n)}
    for a, b in dynkin_edges(n):
        neighbours[a].add(b)
        neighbours[b].add(a)
    simples = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        grown = []
        for d in frontier:
            for k in range(n):
                pairing = 2 * d[k] - sum(d[j] for j in neighbours[k])
                if pairing == -1:
                    up = d[:k] + (d[k] + 1,) + d[k + 1 :]
                    if up not in seen:
                        seen.add(up)
                        grown.append(up)
        frontier = grown
    return sorted(seen, key=lambda d: (sum(d), d))


def box_size(d):
    """Size of the closed-form oracle's search box, prod(d_i + 1)."""
    return math.prod(x + 1 for x in d)


def quiver_text(n, arrows):
    """The CLI text form, arrows sorted as the package prints them."""
    return "n=%d; %s" % (n, ", ".join("%d>%d" % a for a in sorted(arrows)))


def random_quiver(rng, n):
    return oriented_quiver(n, "".join(rng.choice("<>") for _ in range(n - 1)))


def oriented_quiver(n, pattern):
    arrows = [(a, b) if c == ">" else (b, a) for (a, b), c in zip(dynkin_edges(n), pattern)]
    return quiver_text(n, arrows)


def _csv(d):
    return ",".join(map(str, d))


def sweep(seed):
    """`verify --n 6`: every orientation x every root; the seed is unused."""
    n = SWEEP_RANK
    roots = positive_roots(n)
    orientations = 2 ** (n - 1)
    box = orientations * sum(box_size(d) for d in roots)
    args = ["verify", "--n", str(n), "--jobs", "1"]
    while True:
        yield Command(args, None, n, None, box, orientations * len(roots), True)


def compute(seed):
    """`compute -f json` on a random orientation, in passes over every root.

    The deck holds every (rank, root) pair with a box of at most
    COMPUTE_MAX_BOX; it is reshuffled for each pass (one round), and every
    query draws a fresh orientation.  Whole passes keep the mix of root sizes
    the same from seed to seed.
    """
    rng = random.Random(seed)
    deck = [
        (n, d)
        for n in COMPUTE_RANKS
        for d in positive_roots(n)
        if box_size(d) <= COMPUTE_MAX_BOX
    ]
    while True:
        rng.shuffle(deck)
        for k, (n, d) in enumerate(deck):
            q = random_quiver(rng, n)
            args = ["compute", "-q", q, "-d", _csv(d), "-f", "json"]
            yield Command(args, q, n, d, box_size(d), 1, k == len(deck) - 1)


def verify_tran(seed):
    """`verify -q Q -d d --oracle tran` over VERIFY_TRAN_ROUND, again and again.

    Each query's root is drawn with probability proportional to its box
    prod(d_i + 1), the input property that loads the tran oracle.
    """
    rng = random.Random(seed)
    pools = {n: positive_roots(n) for n, _ in VERIFY_TRAN_ROUND}
    weights = {n: [box_size(d) for d in roots] for n, roots in pools.items()}
    while True:
        for k, (n, pattern) in enumerate(VERIFY_TRAN_ROUND):
            q = oriented_quiver(n, pattern)
            d = rng.choices(pools[n], weights=weights[n])[0]
            args = ["verify", "-q", q, "-d", _csv(d), "--oracle", "tran", "--jobs", "1"]
            yield Command(args, q, n, d, box_size(d), 1, k == len(VERIFY_TRAN_ROUND) - 1)


WORKLOADS = {"sweep": sweep, "compute": compute, "verify-tran": verify_tran}
