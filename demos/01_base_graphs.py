"""Build base graphs for a few orientations and describe their anatomy.

Every acyclic orientation of the rank-n diagram gets a planar bipartite
graph: one square tile per path vertex laid out as a staircase, a 2x1
hexagonal brick at the trivalent vertex, and two fork squares.  Arrows
decide where the staircase turns, which side of the brick each fork square
touches, and where the two weight labels of every arrow land.
"""

from dimercluster import Quiver, all_orientations, parse_quiver
from dimercluster.base_graph import BaseGraph

quiver = parse_quiver("n=5; 1>0,2>1,3>2,2>4")
graph = BaseGraph(quiver)

print("=== rank-5 example ===")
print(graph.describe())
print()

print("=== the same data as DOT (pipe into `dot -Tpng`) ===")
print(graph.to_dot((1, 1, 2, 1, 1)))
print()

print("=== tile kinds across every rank-4 orientation ===")
for q in all_orientations(4):
    g = BaseGraph(q)
    kinds = ["%d:%s" % (t.index, t.kind[:3]) for t in g.tiles]
    print("  %-28s -> %s, %d vertices, %d edges"
          % (q, " ".join(kinds), len(g.corners), len(g.edges)))
