#!/usr/bin/env python3
"""Round trips between sparseness pairs (a, k) and form pairs (at, kt).

One direction: the exact k_min(a) of a graph converts into form
constants whose two-sided eigenvalue sandwich must hold index by index.
The other: optimal form constants convert back into a sparseness pair
dominating k_min.  Both margins are printed; they are non-negative up
to eigensolver noise because the finite-matrix statements are theorems.
"""
import numpy as np

import sgs

rng = np.random.default_rng(8)
n = 40
edges = [(i, j) for i in range(n) for j in range(i + 1, n)
         if rng.random() < 0.12]
g = sgs.Graph(n, edges)
q = sgs.Potential(rng.uniform(0, 2.5, n))
plan = sgs.SpectralPlan(g, q)  # one operator and spectrum for every check

print(f"random graph: n={n}, m={g.edge_count}, q uniform in [0, 2.5]")
print()
for a in (0.0, 0.5, 2.0):
    cert = sgs.kmin_flow(g, q, a)
    constants = (sgs.sparse_to_form(a, cert.k, a_tilde=0.5) if a == 0
                 else sgs.sparse_to_form(a, cert.k))
    lower, upper = plan.sandwich(constants.a_tilde, constants.k_tilde,
                                 constants.k_tilde)
    print(f"a={a:<4g} k_min={cert.k:8.4f} -> a_tilde={constants.a_tilde:.4f} "
          f"k_tilde={constants.k_tilde:8.4f}  sandwich margins "
          f">= {min(lower.min(), upper.min()):+.2e}")

print()
for at in (0.3, 0.5, 0.8):
    k_low, _ = plan.offsets(at)
    a_back, k_back = sgs.form_to_sparse(at, k_low)
    kmin = sgs.kmin_flow(g, q, a_back).k
    print(f"a_tilde={at:<4g} optimal k_tilde={k_low:8.4f} -> "
          f"(a={a_back:.4f}, k={k_back:8.4f}); k_min(a)={kmin:8.4f} <= k "
          f"(slack {k_back - kmin:+.4f})")

print()
print("asymptotics of the conversion for small and large a (k = 1):")
for a in (1e-4, 1e-2, 1.0, 10.0, 100.0):
    c = sgs.sparse_to_form(a, 1.0)
    print(f"  a={a:<8g} a_tilde={c.a_tilde:.6f}  k_tilde={c.k_tilde:10.4f}")
