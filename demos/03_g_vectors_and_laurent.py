"""g-vectors and full Laurent expansions from configuration weights.

The weight of the minimal matching divided by x^d gives the g-vector.  Each
hatted coefficient yhat_i is a monomial, so the full cluster variable
x^g * F(yhat) is F with every term c * u^e relabeled to one term
c * x^(g + Yhat e) * y^e.  Termwise, it is also the sum of
2^cycles * x^(wt - d) * y^e over poset elements: the flip poset checks, once
per base graph, that a flip at tile i changes the weight by column i of
Yhat, and refuses to build if it does not.
"""

from dimercluster import parse_quiver
from dimercluster.base_graph import BaseGraph
from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.flip_poset import FlipPoset
from dimercluster.laurent_poly import LaurentPolynomial, u_context
from dimercluster.mixed_dimer import minimal_matching, x_exponents
from dimercluster.mutation_oracle import expansion_from_f_and_g, walk_cluster_variables

quiver = parse_quiver("n=5; 1>0,2>1,3>2,2>4")
d = (1, 1, 2, 1, 1)
graph = BaseGraph(quiver)
f, g = dimer_invariants(FlipPoset(quiver, d, graph=graph))
var = expansion_from_f_and_g(quiver, f, g)

print("=== weight of the minimal matching ===")
wt = x_exponents(graph, minimal_matching(graph, d))
print("wt(M_-) exponents:", wt)
print("g = wt - d      :", g)
print()

print("=== hatted coefficients ===")
for i in range(quiver.n):  # yhat_i is x^0 * F(yhat) for F = u_i
    u_i = LaurentPolynomial.variable(u_context(quiver.n), "u%d" % i)
    p = expansion_from_f_and_g(quiver, u_i, (0,) * quiver.n)
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
