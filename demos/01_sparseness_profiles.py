#!/usr/bin/env python3
"""Sparseness profiles: how the optimal k depends on the boundary weight a.

For each graph we sweep a over a grid and print the exact k_min(a)
together with the witness subset attaining it.  Trees flatten out at
2(n-1)/n, cliques stay at their density, and truncations of infinite
hosts feel their boundary deficits as soon as a > 0.
"""
import sgs

A_GRID = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]

graphs = {
    "path P10": sgs.path_graph(10),
    "cycle C12": sgs.cycle_graph(12),
    "complete K6": sgs.complete_graph(6),
    "grid 5x5": sgs.grid_graph(5),
    "3-regular tree ball r=4": sgs.regular_tree_ball(3, 4),
    "antitree (1,2,4,8,16)": sgs.antitree((1, 2, 4, 8, 16)),
}

for name, g in graphs.items():
    profile = sgs.kmin_flow(g, None, A_GRID)  # one cut network per graph
    row = "  ".join(f"a={a:<4g} k={c.k:7.4f}" for a, c in zip(A_GRID, profile))
    print(f"{name:28s} {row}")
    best = profile[0]
    print(f"{'':28s} witness at a=0: |W|={best.stats.size}, "
          f"2|E_W|/|W|={best.ratio:.4f}")

print()
print("(a,0)-sparseness thresholds (infinite when a subset has edges but")
print("no boundary and no positive potential mass):")
for name, g in graphs.items():
    t = sgs.amin_zero_k(g, None)
    print(f"  {name:28s} a_min = {t.value}")
