"""Symplectic lattices of square-free level: para-symplectic reduction,
boundary-component counting, local and global Hecke double cosets, Garrett
coset representatives, and theta series of chains of even modular lattices."""

from .altlat import (
    AltLattice,
    IsotropicSubmodule,
    ParaBasis,
    adapt_to_isotropic,
    admissible_d_values,
    cusp_count,
    cusp_representative,
    d_invariant,
    level_and_det,
    orbit_equivalent,
    para_symplectic_basis,
    sample_isotropic,
    standard_lattice,
)
from .exactmat import (
    Mat,
    hermite_normal_form,
    is_symplectic,
    rational_inverse,
    smith_normal_form,
)
from .garrett import (
    CombinedLattice,
    GarrettRep,
    GarrettTriple,
    admissible_triples,
    garrett_representative,
    kernel_identity_check,
    orbit_invariants,
    project_isotropic,
    split_radical,
)
from .heckelocal import (
    LocalDoubleCoset,
    LocalLattice,
    LocalShape,
    classify_pair,
    enumerate_Tpj,
    enumerate_neighbors,
    global_representative,
    hecke_product,
    left_cosets,
    neighbor_count_formula,
    representative_matrix,
    transpose_integrality,
)
from .quadlat import (
    ChainClass,
    ParamodularChain,
    QuadLattice,
    aut_order,
    e8_lattice,
    enumerate_chain_classes,
    invariants,
    isometry_test,
    pmodular_sublattices,
    short_vectors,
)
from .thetaser import (
    GenusTheta,
    ThetaExpansion,
    eisenstein_compare_deg1,
    genus_theta,
    inversion_check,
    paramodularity_check,
    theta_coefficients,
    theta_eval,
)

__all__ = [
    "AltLattice", "IsotropicSubmodule", "ParaBasis", "Mat",
    "adapt_to_isotropic", "admissible_d_values", "cusp_count",
    "cusp_representative", "d_invariant", "level_and_det",
    "orbit_equivalent", "para_symplectic_basis", "sample_isotropic",
    "standard_lattice", "smith_normal_form", "hermite_normal_form",
    "rational_inverse", "is_symplectic", "LocalShape", "LocalDoubleCoset",
    "LocalLattice", "classify_pair", "representative_matrix",
    "transpose_integrality", "enumerate_Tpj", "neighbor_count_formula",
    "enumerate_neighbors", "left_cosets", "hecke_product",
    "global_representative", "CombinedLattice", "GarrettTriple",
    "GarrettRep", "admissible_triples", "project_isotropic", "split_radical",
    "garrett_representative", "orbit_invariants", "kernel_identity_check",
    "QuadLattice", "ParamodularChain", "ChainClass", "invariants",
    "short_vectors", "isometry_test", "aut_order", "pmodular_sublattices",
    "enumerate_chain_classes", "e8_lattice", "ThetaExpansion", "GenusTheta",
    "theta_coefficients", "theta_eval", "inversion_check",
    "paramodularity_check", "genus_theta", "eisenstein_compare_deg1",
]

__version__ = "0.1.0"
