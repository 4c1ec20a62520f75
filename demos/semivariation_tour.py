"""Semivariation, the increment-sum set, and the duality sandwich.

Semivariation measures the largest seminorm value reachable by signed sums
of increments.  It is also the largest variation of <u, x(.)> over the
polar ball of the seminorm, so for weighted-sup and real weighted-one
seminorms it is the largest exact variation over the ball's finitely many
vertices, for steps and smooth curves alike.  A quadratic seminorm's ball
is an ellipsoid; a branch and bound over it brackets the sup between a
value that some dual attains and a certified upper end.  The increment-sum
set and dual variations sandwich the same quantity.
"""

import numpy as np

from stieltjes import (PiecewiseFunction, Seminorm, dual_variation_bound,
                       e_set, semivariation, semivariation_on_partition,
                       uniform_tagged_partition, wcs_check)

x = PiecewiseFunction.step((0.0, 1.0), [0.25, 0.75],
                           [[1.0, 0.0], [-1.0, 1.0]], [0.0, 0.0])
taxicab = Seminorm.weighted_one([1.0, 1.0])
first = Seminorm.weighted_sup([1.0, 0.0])

part = uniform_tagged_partition(0.0, 1.0, 2)
value, coeffs = semivariation_on_partition(x, part, first)
print("two jumps (1,0) and (-1,1), seminorm |v_1|, partition {0, 1/2, 1}:")
print(f"  on-partition value {value} with signs {coeffs}")
print("  the signs oppose so the first coordinates add instead of cancel")

print()
for p, label in ((taxicab, "|v_1| + |v_2|"), (first, "|v_1|")):
    rep = semivariation(x, p)
    print(f"semivariation under {label}: {rep.value} (exact={rep.exact})")

print()
print("increment-sum set (all subset sums of the jumps):")
for v in e_set(x):
    print(f"  {v}")
ok, bounds = wcs_check(x, [taxicab, first])
print(f"bounded under every seminorm: {ok}, sups {bounds}")

print()
duals = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, -0.5])]
bound = dual_variation_bound(x, np.eye(2), duals)
rep = semivariation(x, taxicab)
print("dual variations never beat the semivariation:")
print(f"  best dual variation {bound} <= semivariation {rep.value}")

print()
smooth = PiecewiseFunction(np.array([0.0, 1.0]),
                           np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]))
rep = semivariation(smooth, first)
print("smooth curve (t, t^2) under |v_1|: the vertex e_1 of the polar ball")
print(f"  gives the variation of t, {rep.value:.12f} (exact={rep.exact})")

print()
quad = Seminorm.quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
rep = semivariation(smooth, quad)
print("the same curve under sqrt(v^T Q v), Q = [[2, 0.5], [0.5, 1]]:")
print(f"  {rep.value:.10f} <= semivariation <= {rep.upper:.10f}")
print(f"  (converged={rep.converged} after {rep.levels} levels, "
      f"exact={rep.exact})")
