"""From the minimal matching to the F-polynomial, one flip at a time.

The rank-5 instance with root d = (1,1,2,1,1) is small enough to watch in
full: 13 configurations survive, one carries a closed cycle (coefficient 2),
and five reachable configurations are rejected because an edge path in them
would join differently-colored marked corners.
"""

from dimercluster import parse_quiver
from dimercluster.base_graph import BaseGraph
from dimercluster.flip_poset import FlipPoset
from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.mixed_dimer import (
    config_from_e,
    minimal_matching,
    support_summary,
)
from dimercluster.tran_oracle import tran_f_polynomial

quiver = parse_quiver("n=5; 1>0,2>1,3>2,2>4")
d = (1, 1, 2, 1, 1)
graph = BaseGraph(quiver)

print("=== the minimal matching ===")
m = minimal_matching(graph, d)  # one multiplicity per edge of graph.edges
for edge, mult in zip(graph.edges, m):
    if mult:
        print("  %s -- %s  x%d" % (edge[0], edge[1], mult))
# a flip at tile i needs d_i >= 1 and every bw-side of the tile present:
# the edges its flip lowers, the -1 entries of graph.flip_deltas[i]
print("tiles flippable from here:",
      [i for i in range(5)
       if d[i] and all(m[k] for k, delta in graph.flip_deltas[i] if delta < 0)])
print()

print("=== breadth-first flips ===")
poset = FlipPoset(quiver, d)
coeffs = poset.coefficients
by_rank = {}
for e in poset.elements:
    by_rank.setdefault(sum(e), []).append(e)
for r in sorted(by_rank):
    row = ["%s(c=%d)" % (",".join(map(str, e)), coeffs[e])
           for e in by_rank[r]]
    print("  rank %d: %s" % (r, "  ".join(row)))
print("rejected as polychromatic:",
      " ".join(",".join(map(str, e)) for e in sorted(poset.excluded)))
print()

print("=== why a configuration gets weight 2 ===")
doubled = (1, 1, 1, 0, 1)
config = config_from_e(poset.graph, poset.d, doubled)
support = [mult for mult in config if mult]
print("  support: %d edges, %d of them doubled" % (len(support), support.count(2)))
labels = graph.node_labels(d)
marks = {c: labels[v] for c, v in enumerate(graph.corners) if v in labels}
monochromatic, cycles = support_summary(graph, config, marks)
print("  monochromatic: %s; components that are simple cycles: %d -> coefficient %d"
      % (monochromatic, cycles, 2 ** cycles))
print()

print("=== the F-polynomial, two independent ways ===")
f_dimer, _ = dimer_invariants(poset)
f_cond = tran_f_polynomial(quiver, d)
print("poset route:     F =", f_dimer.render())
print("condition route: F =", f_cond.render())
print("equal:", f_dimer == f_cond)
