from fractions import Fraction
from itertools import combinations, permutations

import time

import pytest

from signedgraph import (
    SgError,
    SignedGraph,
    adjacency_matrix,
    bareiss_determinant,
    degree_matrix,
    edge_vector,
    enumerate_frame_circuits,
    incidence_columns,
    incidence_matrix,
    is_independent,
    laplacian,
    link,
    loop,
    matrix_tree,
    rank,
    rational_rank,
    reduce,
    spectrum,
    switch_set,
)
from signedgraph.matrices import rational_nullity
from conftest import random_graph, seeded

# the printed 4x7 reference; our canonical column signs negate columns e, f
PRINTED_H = [
    [1, 0, 0, 1, -1, -1, 0],
    [-1, 1, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, -1, 1],
    [0, 0, -1, 1, 1, 0, 0],
]
PRINTED_A = [
    [0, 1, -1, 0],
    [1, 0, -1, 0],
    [-1, -1, 1, 1],
    [0, 0, 1, 0],
]
# the published diagonal shows 3 at the half-edge vertex, which contradicts
# L = H H^T there; we use the identity-consistent value 4 (see README notes)
REFERENCE_L = [
    [4, -1, 1, 0],
    [-1, 2, 1, 0],
    [1, 1, 4, -1],
    [0, 0, -1, 3],
]


def test_edge_vectors(sigma4):
    assert edge_vector(sigma4, "a") == [1, -1, 0, 0]
    assert edge_vector(sigma4, "h") == [0, 0, 1, 0]
    g = SignedGraph(2, [loop("p", 0, 1), loop("n", 1, -1)])
    assert edge_vector(g, "p") == [0, 0]
    assert edge_vector(g, "n") == [0, 2]


def test_incidence_matches_reference_up_to_column_sign(sigma4):
    h = incidence_matrix(sigma4)
    for j in range(7):
        col = [h[i][j] for i in range(4)]
        ref = [PRINTED_H[i][j] for i in range(4)]
        assert col == ref or col == [-x for x in ref]
    # canonical choice: columns a..d and h equal the reference exactly
    for j in (0, 1, 2, 3, 6):
        assert [h[i][j] for i in range(4)] == [PRINTED_H[i][j] for i in range(4)]


def test_adjacency_reference(sigma4):
    assert adjacency_matrix(sigma4) == PRINTED_A


def test_laplacian_reference(sigma4):
    assert laplacian(sigma4) == REFERENCE_L


def test_laplacian_is_gram_of_incidence():
    rng = seeded(51)
    for _ in range(60):
        g = random_graph(rng, n_max=6, m_max=10)
        h = incidence_matrix(g)
        m = len(g.edges)
        hht = [
            [sum(h[i][k] * h[j][k] for k in range(m)) for j in range(g.n)]
            for i in range(g.n)
        ]
        assert hht == laplacian(g)


def test_all_negative_gives_signless_laplacian():
    g = SignedGraph(3, [link("a", 0, 1, -1), link("b", 1, 2, -1)])
    a = adjacency_matrix(g)
    d = degree_matrix(g)
    # D + A of the underlying graph == D - A of the all-negative signature
    underlying = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, 1)])
    au = adjacency_matrix(underlying)
    lplus = [[d[i][j] + au[i][j] for j in range(3)] for i in range(3)]
    assert laplacian(g) == lplus


def test_reduce_sigma4(sigma4):
    r = reduce(sigma4)
    assert r.edge_ids == sigma4.edge_ids - {"d", "e"}
    assert adjacency_matrix(r) == adjacency_matrix(sigma4)


def test_reduce_double_digon():
    g = SignedGraph(
        2,
        [
            link("a", 0, 1, 1),
            link("b", 0, 1, 1),
            link("c", 0, 1, -1),
            link("d", 0, 1, -1),
        ],
    )
    assert reduce(g).edge_ids == frozenset()


def greedy_reduce_ids(g):
    """The cancellation scan that reduce replaced: over the remaining links
    in edge-id order, cancel the first opposite-signed parallel pair found,
    then scan again from the start."""
    keep = {e.id: e for e in g.edges if e.kind.value in ("link", "half") or e.sign == -1}
    changed = True
    while changed:
        changed = False
        links = sorted((e for e in keep.values() if e.kind.value == "link"), key=lambda e: e.id)
        for e, f in combinations(links, 2):
            if sorted(e.ends) == sorted(f.ends) and e.sign == -f.sign:
                del keep[e.id], keep[f.id]
                changed = True
                break
    return frozenset(keep)


def test_reduce_cancels_as_the_greedy_scan_does():
    rng = seeded(71)
    for _ in range(400):
        g = random_graph(rng, n_max=4, m_max=14)
        r = reduce(g)
        assert r.edge_ids == greedy_reduce_ids(g)
        assert [e.id for e in r.edges] == [e.id for e in g.edges if e.id in r.edge_ids]


def test_rational_rank_basics(sigma4):
    assert rational_rank(incidence_matrix(sigma4)) == 4
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([]) == 0
    tree = SignedGraph(4, [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 2, 3, 1)])
    assert rational_rank(incidence_matrix(tree)) == 3
    assert rational_nullity(incidence_matrix(tree)) == 0
    assert rational_rank([[0.5, 1.5], [1.0, 3]]) == 1


def test_rational_rank_of_numpy_ints():
    np = pytest.importorskip("numpy")
    assert rational_rank(np.array([[1, 2], [2, 4]])) == 1
    assert bareiss_determinant(np.array([[1, 2], [3, 4]])) == -2
    assert spectrum(np.array([[0, 1], [1, 0]])) == [-1.0, 1.0]
    assert rational_rank([[np.float32(1.5), np.int8(3)]]) == 1


def test_rank_law_random():
    rng = seeded(52)
    for _ in range(50):
        g = random_graph(rng, n_max=5, m_max=8)
        ids = sorted(g.edge_ids)
        for r in range(len(ids) + 1):
            for combo in combinations(ids, min(r, len(ids))):
                s = frozenset(combo)
                assert rational_rank(incidence_columns(g, s)) == rank(g, s)
                break  # one subset per size keeps this quick


def test_gf2_rank_negative_loop():
    # the negative-loop column (2) vanishes over GF(2) only; its rational rank is 1
    g = SignedGraph(1, [loop("l", 0, -1)])
    h = incidence_matrix(g)
    assert rational_rank(h) == 1


def test_bareiss_determinant():
    assert bareiss_determinant([[2, 1], [1, 2]]) == 3
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    with pytest.raises(SgError):
        bareiss_determinant([[1, 2, 3]])


def leibniz(m):
    """The determinant by definition: the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(m))):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def largest_nonzero_minor(m):
    """The rank by definition: the order of the largest nonzero minor."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if leibniz([[m[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def test_rank_and_determinant_match_their_definitions():
    rng = seeded(28)
    for trial in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        if trial % 2:  # Fractions with small denominators
            entry = lambda: Fraction(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 4))
        else:  # mostly zeros, so that columns without a pivot and row swaps occur
            entry = lambda: rng.choice((0, 0, 0, rng.randint(-4, 4)))
        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.3:  # a row that depends on two others
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
        assert rational_rank(m) == largest_nonzero_minor(m), m
        if cols >= rows:
            square = [row[:rows] for row in m]
            if all(Fraction(x).denominator == 1 for row in square for x in row):
                assert bareiss_determinant(square) == leibniz(square), square
            else:
                with pytest.raises(SgError, match="determinant needs integer entries"):
                    bareiss_determinant(square)


def test_matrix_tree_sigma4(sigma4):
    rep = matrix_tree(sigma4)
    assert rep.det_laplacian == 53
    assert rep.consistent


def test_matrix_tree_single_negative_loop():
    g = SignedGraph(1, [loop("l", 0, -1)])
    rep = matrix_tree(g)
    assert rep.det_laplacian == 4
    assert rep.circle_counts == (0, 1)
    assert rep.consistent


def test_matrix_tree_balanced_is_zero():
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 0, 2, 1)])
    rep = matrix_tree(g)
    assert rep.det_laplacian == 0
    assert rep.weighted_sum == 0


def test_matrix_tree_random():
    rng = seeded(53)
    for _ in range(30):
        g = random_graph(rng, n_max=5, m_max=8)
        assert matrix_tree(g).consistent


def test_matrix_tree_counts_are_independent_sets(sigma4):
    rep = matrix_tree(sigma4)
    total = sum(rep.circle_counts)
    ids = sorted(sigma4.edge_ids)
    brute = sum(
        1 for combo in combinations(ids, 4) if is_independent(sigma4, frozenset(combo))
    )
    assert total == brute


def test_spectrum_basics(sigma4):
    ev = spectrum(laplacian(sigma4))
    assert ev == sorted(ev)
    assert min(ev) > -1e-9
    g = SignedGraph(2, [link("a", 0, 1, 1)])
    ev2 = spectrum(adjacency_matrix(g))
    assert abs(ev2[0] + 1) < 1e-12 and abs(ev2[1] - 1) < 1e-12
    with pytest.raises(SgError):
        spectrum([[0, 1], [2, 0]])


def test_spectrum_switching_invariant(sigma4):
    ev1 = spectrum(adjacency_matrix(sigma4))
    ev2 = spectrum(adjacency_matrix(switch_set(sigma4, [1, 2])))
    assert all(abs(a - b) < 1e-9 for a, b in zip(ev1, ev2))


def test_spectrum_integer_eigenvalues_are_exact():
    # P_3 has 0 once and C_4 has 0 twice: LAPACK printed residues like -8e-17 for them
    path = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, 1)])
    square = SignedGraph(4, [link(f"e{i}", i, (i + 1) % 4, 1) for i in range(4)])
    assert spectrum(adjacency_matrix(square)) == [-2.0, 0.0, 0.0, 2.0]
    ev = spectrum(adjacency_matrix(path))
    assert ev[1] == 0.0 and str(ev[1]) == "0.0" and abs(ev[2] - 2 ** 0.5) < 1e-14
    assert spectrum(laplacian(square)) == [0.0, 2.0, 2.0, 4.0]
    assert spectrum([]) == []


def test_spectrum_splits_the_matrix_into_blocks():
    # two blocks, {0, 2} and {1, 3}, interleaved; and a zero row
    m = [[0, 0, 1, 0, 0], [0, 1, 0, 2, 0], [1, 0, 0, 0, 0], [0, 2, 1, 0, 0], [0] * 5]
    with pytest.raises(SgError, match="spectrum needs a symmetric matrix"):
        spectrum(m)
    m[3][2] = 0
    ev = spectrum(m)
    assert ev[1:4] == [-1.0, 0.0, 1.0] and abs(ev[0] - (1 - 17 ** 0.5) / 2) < 1e-14
    assert abs(ev[4] - (1 + 17 ** 0.5) / 2) < 1e-14


def test_spectrum_of_a_65_vertex_block_answers_within_0_3_s():
    # a tree on 65 vertices: the largest block under sgtool's 64-edge cap
    rng = seeded(30)
    tree = SignedGraph(65, [link(f"e{v}", v, rng.randrange(v), rng.choice((1, -1))) for v in range(1, 65)])
    for matrix in (adjacency_matrix, laplacian):
        a = matrix(tree)
        start = time.perf_counter()
        ev = spectrum(a)
        assert time.perf_counter() - start < 0.3, matrix.__name__
        assert abs(sum(ev) - sum(a[i][i] for i in range(65))) < 1e-9


def test_minimal_dependent_column_sets_are_frame_circuits():
    rng = seeded(54)
    for _ in range(20):
        g = random_graph(rng, n_max=4, m_max=6)
        circuits = {
            fc.edge_set
            for fc in enumerate_frame_circuits(g, n_cap=g.n, edge_cap=len(g.edges))
        }
        ids = sorted(g.edge_ids)
        minimal_dependent = set()
        for r in range(1, len(ids) + 1):
            for combo in combinations(ids, r):
                s = frozenset(combo)
                if rational_rank(incidence_columns(g, s)) < len(s) and all(
                    rational_rank(incidence_columns(g, s - {e})) == len(s) - 1
                    for e in s
                ):
                    minimal_dependent.add(s)
        assert minimal_dependent == circuits
