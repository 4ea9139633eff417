"""Sparseness constants, Cheeger constants, and spectral form bounds
for finite graphs and Dirichlet truncations of infinite hosts.

The package computes, exactly, the smallest k making a graph
(a, k)-sparse, the (a, 0)-sparseness threshold, and isoperimetric
constants of vertex regions; assembles the associated (magnetic)
Schrodinger matrices; derives optimal degree-control form constants;
and verifies every implied eigenvalue inequality on concrete instances.

Importing the package loads no submodule: a public name (PEP 562) or a
submodule such as ``sgs.maxflow`` is looked up in its defining module on
access, so ``sgs.kmin_flow`` loads no scipy and ``sgs.assemble`` does.
"""

import importlib

__version__ = "0.1.0"

# Slopes a_tilde at which ``analyze spectrum`` and ``verify`` solve the
# offsets by default; here so that the CLI's parser needs no scipy.
DEFAULT_ATILDE_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))

# Each submodule ``import sgs`` reaches, with the names the package
# exports from it.
_EXPORTS = {
    "graphs": ("Graph", "Potential", "PhaseField", "SubsetStats",
               "subset_stats", "breadth_first_spheres"),
    "generators": ("path_graph", "cycle_graph", "complete_graph",
                   "grid_graph", "star_graph", "antitree", "make_basic",
                   "RadialFamilySpec", "make_radial_family", "edge_union",
                   "cartesian_sum", "regular_tree_ball"),
    "sparseness": ("SparsenessCertificate", "CheegerCertificate",
                   "SparsityThreshold", "kmin_bruteforce", "kmin_flow",
                   "amin_zero_k", "sparsity_flow", "cheeger",
                   "cheeger_bruteforce", "cheeger_lower_bound",
                   "potential_class_kappa"),
    "operators": ("HermitianOperator", "assemble", "quad_form",
                  "upside_down_identity", "kato_gap"),
    "spectra": ("FormConstants", "SpectralPlan", "SpectralReport",
                "eigenvalues", "form_to_sparse", "sparse_to_form",
                "perturb_constants", "cheeger_form_slopes",
                "spectral_edge_bound", "ratio_report"),
    "verify": ("run_checks",),
    "maxflow": (),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # no caching: a name read twice is looked up twice, so a wrapper
    # installed on the defining module is what every caller sees
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                       name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
