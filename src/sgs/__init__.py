"""Sparseness constants, Cheeger constants, and spectral form bounds
for finite graphs and Dirichlet truncations of infinite hosts.

The package computes, exactly, the smallest k making a graph
(a, k)-sparse, the (a, 0)-sparseness threshold, and isoperimetric
constants of vertex regions; assembles the associated (magnetic)
Schrodinger matrices; derives optimal degree-control form constants;
and verifies every implied eigenvalue inequality on concrete instances.
"""

from .graphs import (Graph, PhaseField, Potential, SubsetStats,
                     breadth_first_spheres, subset_stats)
from .generators import (RadialFamilySpec, antitree, combine, complete_graph,
                         cycle_graph, grid_graph, make_basic,
                         make_radial_family, path_graph, regular_tree_ball,
                         star_graph)
from .sparseness import (CheegerCertificate, SparsenessCertificate,
                         SparsityThreshold, amin_zero_k, cheeger,
                         cheeger_bruteforce, cheeger_lower_bound,
                         kmin_bruteforce, kmin_flow, potential_class_kappa,
                         sparsity_flow)
from .operators import (HermitianOperator, assemble, kato_gap, quad_form,
                        upside_down_identity)
from .spectra import (FormConstants, SpectralPlan, SpectralReport,
                      cheeger_form_slopes, eigenvalues, form_to_sparse,
                      perturb_constants, ratio_report, sparse_to_form,
                      spectral_edge_bound)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "Graph", "Potential", "PhaseField", "SubsetStats",
    "subset_stats", "breadth_first_spheres",
    "path_graph", "cycle_graph", "complete_graph", "grid_graph",
    "star_graph", "antitree", "make_basic", "RadialFamilySpec",
    "make_radial_family", "combine", "regular_tree_ball",
    "SparsenessCertificate", "CheegerCertificate", "SparsityThreshold",
    "kmin_bruteforce", "kmin_flow", "amin_zero_k", "sparsity_flow", "cheeger",
    "cheeger_bruteforce", "cheeger_lower_bound", "potential_class_kappa",
    "HermitianOperator", "assemble", "quad_form", "upside_down_identity",
    "kato_gap",
    "FormConstants", "SpectralPlan", "SpectralReport", "eigenvalues",
    "form_to_sparse", "sparse_to_form", "perturb_constants",
    "cheeger_form_slopes", "spectral_edge_bound", "ratio_report",
    "run_checks",
    "__version__",
]
