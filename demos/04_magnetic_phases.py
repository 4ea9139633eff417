#!/usr/bin/env python3
"""Magnetic phases: diamagnetic gaps and the upside-down mechanism.

The magnetic form always dominates the form of the entrywise modulus
(the gap printed below is never negative), and the exact identity
Delta_theta + Delta_(theta+pi) = 2 deg turns any lower degree bound
into the matching upper bound -- with constants independent of theta.
"""
import numpy as np

import sgs

rng = np.random.default_rng(12)
g = sgs.grid_graph(5)
q = sgs.Potential(rng.uniform(-1, 2, g.vertex_count))

print("diamagnetic gaps <f,(D_theta+q)f> - <|f|,(D+q)|f|> on the 5x5 grid:")
for trial in range(5):
    phase = sgs.PhaseField.random(g, rng)
    f = rng.standard_normal(g.vertex_count) + 1j * rng.standard_normal(g.vertex_count)
    print(f"  trial {trial}: gap = {sgs.kato_gap(g, q, phase, f):10.6f}")

phase = sgs.PhaseField.random(g, rng)
print(f"\npi-shift identity residue: "
      f"{sgs.upside_down_identity(g, phase):.2e} (exact up to rounding)")

print("\noptimal offsets at a_tilde = 0.5:")
plain = sgs.SpectralPlan(g, q)
k_low, k_up = plain.offsets(0.5)
print(f"  non-magnetic: lower {k_low:.4f}, upper {k_up:.4f} "
      f"(upper <= lower: the upside-down mechanism)")
for trial in range(4):
    ph = sgs.PhaseField.random(g, rng)
    k_mag = sgs.SpectralPlan(g, q, ph).constants(0.5).k_tilde
    print(f"  random phase {trial}: two-sided magnetic offset {k_mag:.4f} "
          f"<= {k_low:.4f}")
