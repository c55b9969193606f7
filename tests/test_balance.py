import pytest

from signedgraph import (
    Edge,
    SgError,
    SignedGraph,
    balance_partition,
    balancing_vertices,
    blocks,
    classify_balancing_edges,
    enumerate_circles,
    half,
    harary_bipartition,
    has_two_disjoint_negative_circles,
    is_balanced,
    link,
    loop,
    min_balancing_set,
    switch,
    switch_set,
    switching_equivalent,
)
from conftest import balance_oracle, random_graph, seeded


def neg_triangle(offset=0, n=3):
    return [
        link(f"t{offset}a", offset + 0, offset + 1, 1),
        link(f"t{offset}b", offset + 1, offset + 2, 1),
        link(f"t{offset}c", offset + 0, offset + 2, -1),
    ]


def test_sigma4_unbalanced(sigma4):
    part = balance_partition(sigma4)
    assert part.b == 0
    assert part.v0 == frozenset(range(4))
    assert harary_bipartition(sigma4) is None


def test_balanced_square_bipartition():
    # negative edges should be exactly the crossing edges
    g = SignedGraph(
        4,
        [
            link("a", 0, 1, -1),
            link("b", 1, 2, 1),
            link("c", 2, 3, -1),
            link("d", 0, 3, 1),
        ],
    )
    assert is_balanced(g)
    v1, v2 = harary_bipartition(g)
    assert 0 in v1
    for e in g.edges:
        u, w = e.ends
        crossing = (u in v1) != (w in v1)
        assert crossing == (e.sign == -1)


def test_switch_preserves_circle_signs(sigma4):
    from signedgraph import circle_sign, enumerate_circles

    z = {0: 1, 1: -1, 2: -1, 3: 1}
    g2 = switch(sigma4, z)
    for c in enumerate_circles(sigma4):
        assert circle_sign(sigma4, c) == circle_sign(g2, c)


def test_switch_involution(sigma4):
    z = {0: -1, 1: 1, 2: -1, 3: 1}
    assert switch(switch(sigma4, z), z) == sigma4


def test_switching_equivalence_roundtrip(sigma4):
    z = {0: 1, 1: -1, 2: 1, 3: -1}
    g2 = switch(sigma4, z)
    found = switching_equivalent(sigma4, g2)
    assert found is not None
    assert switch(sigma4, found) == g2


def test_switching_equivalence_negative():
    g1 = SignedGraph(3, neg_triangle())
    g2 = switch_set(g1, [1])
    g3 = g1.with_edges(
        [link("t0a", 0, 1, 1), link("t0b", 1, 2, 1), link("t0c", 0, 2, 1)]
    )
    assert switching_equivalent(g1, g2) is not None
    assert switching_equivalent(g1, g3) is None  # circle signs differ
    with pytest.raises(SgError):
        switching_equivalent(g1, SignedGraph(3, neg_triangle()[:2]))


def test_balance_random_vs_oracle():
    rng = seeded(101)
    for _ in range(120):
        g = random_graph(rng, n_max=6, m_max=10)
        assert is_balanced(g) == balance_oracle(g)


def _components(g, s):
    """Vertex sets of the components of (V, s), by merging sets per edge."""
    comp = [frozenset([v]) for v in range(g.n)]
    for eid in s:
        ends = g.edge(eid).ends
        if len(ends) == 2:
            merged = comp[ends[0]] | comp[ends[1]]
            for v in merged:
                comp[v] = merged
    return sorted(set(comp), key=min)


def test_balance_partition_random_subsets_vs_oracle():
    rng = seeded(102)
    for _ in range(300):
        g = random_graph(rng, n_max=8, m_max=14)
        ids = sorted(g.edge_ids)
        s = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        pib, v0 = [], set()
        for comp in _components(g, s):
            inside = [eid for eid in s if g.edge(eid).ends and g.edge(eid).ends[0] in comp]
            if balance_oracle(g, inside):
                pib.append(tuple(sorted(comp)))
            else:
                v0 |= comp
        part = balance_partition(g, s)
        assert part.pib == tuple(pib)
        assert part.v0 == frozenset(v0)


def test_switching_equivalent_recovers_planted_potential():
    rng = seeded(103)
    for _ in range(200):
        g = random_graph(rng, n_max=7, m_max=12)
        planted = {v: rng.choice([1, -1]) for v in range(g.n)}
        switched = switch(g, planted)
        # normalised to +1 at the lowest vertex of each component
        expected = {}
        for comp in _components(g, g.edge_ids):
            low = min(comp)
            for v in comp:
                expected[v] = planted[v] * planted[low]
        assert switching_equivalent(g, switched) == expected
        circles = enumerate_circles(g)
        if circles:
            flip = sorted(circles[rng.randrange(len(circles))])[0]
            broken = switched.with_edges(
                Edge(e.id, e.kind, e.ends, -e.sign) if e.id == flip else e
                for e in switched.edges
            )
            assert switching_equivalent(g, broken) is None


def test_partition_b_counts_components():
    g = SignedGraph(5, neg_triangle() + [link("x", 3, 4, -1)])
    part = balance_partition(g)
    assert part.b == 1  # only the 3-4 component is balanced
    assert part.v0 == frozenset({0, 1, 2})


def test_classify_balancing_edges_unbalanced_triangle():
    g = SignedGraph(3, neg_triangle())
    cls = classify_balancing_edges(g)
    assert cls == {"t0a": "total", "t0b": "total", "t0c": "total"}


def test_classify_balancing_edges_balanced_graph():
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, -1)])
    assert set(classify_balancing_edges(g).values()) == {"none"}


def test_classify_partial():
    # two negative triangles sharing nothing: removing one edge balances
    # only one component
    g = SignedGraph(6, neg_triangle(0) + neg_triangle(3))
    cls = classify_balancing_edges(g)
    assert set(cls.values()) == {"partial"}


def test_balancing_vertices():
    # negative triangle with a pendant: any triangle vertex balances
    g = SignedGraph(4, neg_triangle() + [link("p", 2, 3, 1)])
    assert balancing_vertices(g) == frozenset({0, 1, 2})
    # two disjoint negative triangles joined by a path: no single vertex works
    g2 = SignedGraph(6, neg_triangle(0) + neg_triangle(3) + [link("j", 2, 3, 1)])
    assert balancing_vertices(g2) == frozenset()


def test_min_balancing_set():
    g = SignedGraph(3, neg_triangle())
    s = min_balancing_set(g)
    assert len(s) == 1
    g2 = SignedGraph(6, neg_triangle(0) + neg_triangle(3))
    assert len(min_balancing_set(g2)) == 2


def test_min_balancing_set_definitional():
    rng = seeded(77)
    for _ in range(25):
        g = random_graph(rng, n_max=5, m_max=7)
        s = min_balancing_set(g)
        assert is_balanced(g, g.edge_ids - s)
        # minimality: no smaller set works
        from itertools import combinations

        for smaller in combinations(sorted(g.edge_ids), max(len(s) - 1, 0)):
            if len(s) == 0:
                break
            assert not is_balanced(g, g.edge_ids - frozenset(smaller))


def test_two_disjoint_negative_circles():
    g = SignedGraph(6, neg_triangle(0) + neg_triangle(3))
    assert has_two_disjoint_negative_circles(g)
    g2 = SignedGraph(3, neg_triangle())
    assert not has_two_disjoint_negative_circles(g2)
    # half edges count as negative circles
    g3 = SignedGraph(4, neg_triangle() + [half("h", 3)])
    assert has_two_disjoint_negative_circles(g3)


def test_blocks():
    g = SignedGraph(
        5,
        neg_triangle()
        + [link("p", 2, 3, 1), link("q", 3, 4, 1), loop("l", 4, -1)],
    )
    bl = blocks(g)
    edge_sets = sorted(b[1] for b in bl if b[1])
    assert frozenset({"t0a", "t0b", "t0c"}) in edge_sets
    assert frozenset({"p"}) in edge_sets
    assert frozenset({"q"}) in edge_sets
    assert frozenset({"l"}) in edge_sets
