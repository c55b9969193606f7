"""signedgraph: exact computational toolkit for signed graphs.

Balance and switching, minors, frame circuits and closure, exact matrices and
the signed matrix-tree identity, hyperplane arrangements and acyclic
orientations, chromatic polynomials, bidirected line graphs, and root-system
angle representations.  The `sgtool` console script fronts all of it.

Exports are lazy: importing the package loads no submodule.  The first access
to `signedgraph.X` (or `from signedgraph import X`) imports the submodule that
defines X; every access returns that submodule's current binding of X, and no
binding is copied into the package namespace.  `signedgraph.<module>` imports
and returns a submodule by name.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "core": (
        "Edge", "EdgeKind", "SgError", "SignedGraph", "circle_sign", "components",
        "edge_set_sign", "enumerate_circles", "fundamental_system", "half", "link",
        "loop", "loose", "parse", "serialize", "spanning_forest",
    ),
    "balance": (
        "BalancePartition", "balance_partition", "balancing_vertices", "blocks",
        "classify_balancing_edges", "harary_bipartition",
        "has_two_disjoint_negative_circles", "is_balanced", "min_balancing_set",
        "switch", "switch_set", "switching_equivalent",
    ),
    "minors": ("MinorTrace", "contract_edge", "contract_set", "delete_edges"),
    "frame": (
        "ClosedSetLattice", "FrameCircuit", "closed_sets", "closure",
        "enumerate_frame_circuits", "is_frame_circuit", "is_independent", "rank",
    ),
    "matrices": (
        "MatrixTreeReport", "adjacency_matrix", "bareiss_determinant", "degree_matrix",
        "edge_vector", "incidence_columns", "incidence_matrix", "laplacian",
        "matrix_tree", "rational_nullity", "rational_rank", "reduce", "spectrum",
    ),
    "polynomial": ("IntPolynomial", "format_polynomial"),
    "orientation": (
        "BidirectedGraph", "Hyperplane", "RegionReport", "arrangement",
        "characteristic_polynomial", "enumerate_acyclic", "is_acyclic", "orient",
        "region_count", "region_witness_point",
    ),
    "coloring": (
        "catalog", "chromatic_numbers", "chromatic_poly_delcon", "color_pair_capacity",
        "count_proper", "is_proper", "make_full", "make_signed", "make_signed_expansion",
        "plus_minus_kn", "plus_minus_kn_full", "unsigned_chromatic",
    ),
    "linegraph": (
        "LineGraphResult", "generalized_line_graph", "harary_norman",
        "line_adjacency_identity", "line_graph", "negate", "reduced_line_graph",
        "switching_isomorphic",
    ),
    "angle": (
        "AngleRepresentation", "RootSystem", "construct_gramian",
        "membership_in_root_system", "normalize", "root_system",
        "verify_representation",
    ),
    "oracles": (
        "balance_closure", "chromatic_poly_subset", "chromatic_via_expansion",
        "closure_by_circuits", "count_regions_by_sign_vectors", "max_used_pairs_bruteforce",
    ),
    "cli": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
