"""signedgraph: exact computational toolkit for signed graphs.

Balance and switching, minors, frame circuits and closure, exact matrices and
the signed matrix-tree identity, hyperplane arrangements and acyclic
orientations, chromatic polynomials, bidirected line graphs, and root-system
angle representations.  The `sgtool` console script fronts all of it.
"""

from .core import (
    Edge,
    EdgeKind,
    SgError,
    SignedGraph,
    circle_sign,
    components,
    edge_set_sign,
    enumerate_circles,
    fundamental_system,
    half,
    link,
    loop,
    loose,
    parse,
    serialize,
    spanning_forest,
)
from .balance import (
    BalancePartition,
    balance_partition,
    balancing_vertices,
    blocks,
    classify_balancing_edges,
    harary_bipartition,
    has_two_disjoint_negative_circles,
    is_balanced,
    min_balancing_set,
    switch,
    switch_set,
    switching_equivalent,
)
from .minors import MinorTrace, contract_edge, contract_set, delete_edges
from .frame import (
    ClosedSetLattice,
    FrameCircuit,
    balance_closure,
    closed_sets,
    closure,
    closure_by_circuits,
    enumerate_frame_circuits,
    is_frame_circuit,
    is_independent,
    rank,
)
from .matrices import (
    MatrixTreeReport,
    adjacency_matrix,
    bareiss_determinant,
    degree_matrix,
    edge_vector,
    incidence_columns,
    incidence_matrix,
    laplacian,
    matrix_tree,
    rational_nullity,
    rational_rank,
    reduce,
    spectrum,
)
from .polynomial import IntPolynomial, format_polynomial
from .orientation import (
    BidirectedGraph,
    Hyperplane,
    RegionReport,
    arrangement,
    characteristic_polynomial,
    count_regions_by_sign_vectors,
    enumerate_acyclic,
    is_acyclic,
    orient,
    region_count,
    region_witness_point,
)
from .coloring import (
    catalog,
    chromatic_numbers,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    chromatic_via_expansion,
    color_pair_capacity,
    count_proper,
    is_proper,
    make_full,
    make_signed,
    make_signed_expansion,
    max_used_pairs_bruteforce,
    plus_minus_kn,
    plus_minus_kn_full,
    unsigned_chromatic,
)
from .linegraph import (
    LineGraphResult,
    generalized_line_graph,
    harary_norman,
    line_adjacency_identity,
    line_graph,
    negate,
    reduced_line_graph,
    switching_isomorphic,
)
from .angle import (
    AngleRepresentation,
    RootSystem,
    construct_gramian,
    membership_in_root_system,
    normalize,
    root_system,
    verify_representation,
)

__version__ = "0.1.0"
