#!/usr/bin/env python3
"""Isoperimetric constants and their exact dictionary with sparseness.

For strictly positive potentials, alpha_V = 1/(1 + a_min) holds subset
by subset, so the two optimizers must agree to rounding.  Region
constants alpha_U feed two-sided form bounds with slopes
1 -/+ sqrt(1 - alpha^2); and the exhaustion alpha over V minus a ball
approximates the constant-at-infinity, which has no finite formula.
"""
import numpy as np

import sgs

rng = np.random.default_rng(4)
n = 14
edges = [(i, j) for i in range(n) for j in range(i + 1, n)
         if rng.random() < 0.35]
g = sgs.Graph(n, edges)
q = sgs.Potential(rng.uniform(0.2, 2.0, n))

alpha = sgs.cheeger_bruteforce(g, q)
amin = sgs.amin_zero_k(g, q)
print(f"alpha_V = {alpha.ratio:.12f}")
print(f"1/(1+a_min) = {1 / (1 + amin.value):.12f}   "
      f"(a_min = {amin.value:.6f}; difference "
      f"{abs(alpha.ratio - 1 / (1 + amin.value)):.1e})")
lo, hi = sgs.cheeger_form_slopes(alpha.ratio)
print(f"implied form slopes: {lo:.4f} (deg+q) <= Delta+q <= {hi:.4f} (deg+q)")

print("\nCheeger exhaustion on the 3-regular tree "
      "(regions V minus a ball; limit of the host constant is 1/3):")
ball = sgs.regular_tree_ball(3, 6)
spheres = sgs.breadth_first_spheres(ball, 0)
for r_cut in range(0, 4):
    inside = set(x for s in spheres[:r_cut] for x in s)
    region = [x for x in range(ball.vertex_count) if x not in inside]
    cert = sgs.cheeger(ball.restrict(region), None)
    label = "V" if r_cut == 0 else f"V \\ B_{r_cut - 1}"
    print(f"  region {label:9s} alpha = {cert.ratio:.6f} "
          f"(witness size {cert.stats.size})")
