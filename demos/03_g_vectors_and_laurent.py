"""g-vectors and full Laurent expansions from configuration weights.

The weight of the minimal matching divided by x^d gives the g-vector; the
full cluster variable is recovered either as x^g * F(yhat) or termwise as a
sum of 2^cycles * x^(wt - d) * y^e over poset elements.  The library builds
it both ways and refuses to return anything if they disagree.
"""

from dimercluster import parse_quiver
from dimercluster.base_graph import BaseGraph
from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.flip_poset import FlipPoset
from dimercluster.mixed_dimer import minimal_matching, x_exponents
from dimercluster.mutation_oracle import hatted_coefficients, walk_cluster_variables

quiver = parse_quiver("n=5; 1>0,2>1,3>2,2>4")
d = (1, 1, 2, 1, 1)
graph = BaseGraph(quiver)
f, g, var = dimer_invariants(FlipPoset(quiver, d, graph=graph))

print("=== weight of the minimal matching ===")
wt = x_exponents(graph, minimal_matching(graph, d))
print("wt(M_-) exponents:", wt)
print("g = wt - d      :", g)
print()

print("=== hatted coefficients ===")
for i, p in enumerate(hatted_coefficients(quiver)):
    print("  yhat_%d = %s" % (i, p.render()))
print()

print("=== the cluster variable ===")
print("x_d =", var.render())
print()

print("=== cross-check against seed mutation ===")
atlas = walk_cluster_variables(quiver)
print("mutation engine agrees:", atlas[d] == var)
print("denominator vector (min x-exponents negated):",
      tuple(-m for m in var.min_exponents()[:5]))
