"""Shared fixtures and the acceptance-criterion reporter.

The sweep fixtures build, once per session, everything the exhaustive
cross-checks need at a given rank: every orientation with its base graph,
its source-sweep mutation atlas, and one flip poset per positive root.
Acceptance tests record one verdict per criterion; the terminal summary
prints one ``AC<k> PASS/FAIL`` line for each.
"""

import time
from dataclasses import dataclass, field

import pytest

from dimercluster.base_graph import BaseGraph
from dimercluster.flip_poset import FlipPoset
from dimercluster.mutation_oracle import walk_cluster_variables
from dimercluster.quiver_core import all_orientations, positive_roots

AC_RESULTS = {}


def record_ac(k, ok, note=""):
    AC_RESULTS[k] = (bool(ok), note)


def pytest_terminal_summary(terminalreporter):
    if not AC_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(AC_RESULTS):
        ok, note = AC_RESULTS[k]
        line = "AC%d %s" % (k, "PASS" if ok else "FAIL")
        if note:
            line += " (%s)" % note
        terminalreporter.write_line(line)


@dataclass
class SweepEntry:
    quiver: object
    graph: object
    atlas: dict
    posets: dict = field(default_factory=dict)


@dataclass
class Sweep:
    rank: int
    entries: list
    build_seconds: float


def build_sweep(n):
    start = time.perf_counter()
    entries = []
    roots = positive_roots(n)
    for quiver in all_orientations(n):
        graph = BaseGraph(quiver)
        atlas = walk_cluster_variables(quiver)
        posets = {d: FlipPoset(quiver, d, graph=graph) for d in roots}
        entries.append(SweepEntry(quiver, graph, atlas, posets))
    return Sweep(n, entries, time.perf_counter() - start)


@pytest.fixture(scope="session")
def sweep4():
    return build_sweep(4)


@pytest.fixture(scope="session")
def sweep5():
    return build_sweep(5)


@pytest.fixture(scope="session")
def sweep6():
    return build_sweep(6)
