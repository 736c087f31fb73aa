"""Order-theoretic structure of the flip poset.

Every poset here is a lattice (unique bottom M_- and top at e = d), but not
always a distributive one: when a coordinatewise min/max of two members is
itself rejected as polychromatic, the true meet/join drops past it and a
pentagon (N5) appears.  Roots without a doubled entry never reject anything,
so their posets stay distributive.
"""

from dimercluster import all_orientations, parse_quiver, positive_roots
from dimercluster.flip_poset import FlipPoset


def distributive(p):
    # Birkhoff: a lattice is distributive iff it has no pentagon (N5) and no
    # diamond (M3) sublattice
    return p.n5_witness() is None and p.m3_witness() is None


quiver = parse_quiver("n=5; 1>0,2>1,3>2,2>4")
d = (1, 1, 2, 1, 1)
poset = FlipPoset(quiver, d)

print("=== the rank-5 doubled-root poset ===")
print("elements:", len(poset.elements), " excluded:", len(poset.excluded))
ok, _ = poset.is_lattice()
print("lattice:", ok, " distributive:", distributive(poset))
w = poset.n5_witness()
print("pentagon witness: u=%s < v=%s, w=%s with meet %s and join %s"
      % (w["u"], w["v"], w["w"], w["meet"], w["join"]))
cmin = tuple(map(min, zip(w["v"], w["w"])))
print("coordinatewise min of v and w would be %s -> excluded: %s"
      % (cmin, cmin in poset.excluded))
print()

print("=== Hasse diagram (DOT) ===")
print("\n".join(poset.hasse_dot()))
print()

print("=== distributivity census at rank 4 ===")
for q in all_orientations(4):
    nondist = [root for root in positive_roots(4) if not distributive(FlipPoset(q, root))]
    assert all(2 in root for root in nondist), (q, nondist)
    print("  %-28s %d roots, %d non-distributive (all carry a doubled entry)"
          % (q, len(positive_roots(4)), len(nondist)))
