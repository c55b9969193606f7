import pytest

from signedgraph import (
    Edge,
    EdgeKind,
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
    loose,
    min_balancing_set,
    parse,
    switch,
    switch_set,
    switching_equivalent,
)
from signedgraph.balance import _frustration_counts
from conftest import balance_oracle, delete_vertices, fixture_path, random_graph, seeded


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


def test_switch_rejects_a_switching_function_without_a_value_at_a_vertex():
    g = SignedGraph(3, [link("a", 0, 1, -1), link("b", 1, 2, 1), half("h", 2)])
    with pytest.raises(SgError, match="no value at vertex 1"):
        switch(g, {0: 1})
    with pytest.raises(SgError, match="no value at vertex 2"):
        switch(g, [1, 1])
    with pytest.raises(SgError, match="vertex 2 must be"):
        switch(g, [1, 1, 0])
    with pytest.raises(SgError, match="vertex 7 out of range"):
        switch_set(g, [7])
    with pytest.raises(SgError, match="vertex -1 out of range"):
        switch_set(g, [0, -1])
    with pytest.raises(SgError, match="vertex '1' out of range"):
        switch_set(g, ["1"])
    assert switch(g, lambda v: -1 if v == 1 else 1) == switch_set(g, [1])


def test_a_switching_shares_every_edge_whose_sign_stays():
    # x = {2, 6, 7} in mixed7's 1-based labels: the loops p and l, the half
    # edge h, the loose edge z and the link g inside x keep their sign
    with open(fixture_path("mixed7.sg"), "rb") as fh:
        g = parse(fh.read())
    x = {1, 5, 6}
    for h in (switch_set(g, x), switch(g, [-1 if v in x else 1 for v in range(g.n)])):
        assert [e.id for e in h.edges] == [e.id for e in g.edges]
        flipped = set()
        for e, f in zip(g.edges, h.edges):
            if e.kind is EdgeKind.LINK and (e.ends[0] in x) != (e.ends[1] in x):
                flipped.add(e.id)
                assert f is not e and (f.kind, f.ends, f.sign) == (e.kind, e.ends, -e.sign)
            else:
                assert f is e, e.id
        assert flipped == {"a", "b", "f", "i"}


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


def test_switching_equivalent_ignores_edge_order_and_link_end_order():
    g1 = SignedGraph(4, neg_triangle() + [link("p", 2, 3, -1), half("h", 3)])
    g2 = switch_set(g1, [1, 3])
    reordered = g2.with_edges(reversed(g2.edges))
    flipped = g2.with_edges(
        Edge(e.id, e.kind, e.ends[::-1], e.sign) for e in g2.edges
    )
    for other in (reordered, flipped):
        zeta = switching_equivalent(g1, other)
        assert zeta == {0: 1, 1: -1, 2: 1, 3: -1}
        assert switch(g1, zeta).edges == g2.edges


def test_partition_b_counts_components():
    g = SignedGraph(5, neg_triangle() + [link("x", 3, 4, -1)])
    part = balance_partition(g)
    assert part.b == 1  # only the 3-4 component is balanced
    assert part.v0 == frozenset({0, 1, 2})


def classify_balancing_edges_oracle(g):
    """Definitional classes: one balance test per deleted edge."""
    base = balance_partition(g)
    out = {}
    for e in g.edges:
        part = balance_partition(g, g.edge_ids - {e.id})
        if not base.v0 and not part.v0:
            out[e.id] = "none"
        elif not part.v0:
            out[e.id] = "total"
        elif part.b > base.b:
            out[e.id] = "partial"
        else:
            out[e.id] = "none"
    return out


def balancing_vertices_oracle(g):
    """Definitional balancing vertices: one balance test per deleted vertex."""
    if is_balanced(g):
        return frozenset()
    return frozenset(v for v in range(g.n) if is_balanced(delete_vertices(g, [v])))


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


def _tree_like_graph(rng, n_max=30):
    """A random forest with a few extra elements of every kind: many bridges,
    and often several unbalanced components."""
    n = rng.randint(1, n_max)
    edges = [
        link(f"t{v}", rng.randrange(v), v, rng.choice([1, -1]))
        for v in range(1, n)
        if rng.random() < 0.85
    ]
    for i in range(rng.randint(0, 4)):
        roll, v = rng.random(), rng.randrange(n)
        if roll < 0.55 and n >= 2:
            w = rng.choice([x for x in range(n) if x != v])
            edges.append(link(f"x{i}", v, w, rng.choice([1, -1])))
        elif roll < 0.75:
            edges.append(loop(f"x{i}", v, rng.choice([1, -1])))
        elif roll < 0.9:
            edges.append(half(f"x{i}", v))
        else:
            edges.append(loose(f"x{i}"))
    edges = [edges[i] for i in rng.sample(range(len(edges)), len(edges))]
    return SignedGraph(n, edges)


def _edge_rule_case(k, e, cls):
    """Which branch of the edge rule decides e, with the component's state
    and the class it got."""
    n_unbalanced = len(k.unbalanced())
    state = "U=0" if not n_unbalanced else "U=1" if n_unbalanced == 1 else "U>1"
    if e.kind is EdgeKind.LOOSE:
        return ("loose", state, cls)
    child = k.child.get(e.id)
    if child is None:
        return ("non-tree", state, cls)
    if k.cross[child]:
        return ("tree", state, cls)
    balanced = k.below_fr[k.root[child]] == 0
    return ("bridge", state, "balanced K" if balanced else "unbalanced K", cls)


def test_balancing_edges_and_vertices_vs_oracles():
    rng = seeded(104)
    graphs = [random_graph(rng, n_max=9, m_max=14) for _ in range(2000)]
    graphs += [random_graph(rng, n_max=9, m_max=6) for _ in range(500)]
    graphs += [_tree_like_graph(rng) for _ in range(1000)]
    cases = set()
    several_unbalanced = 0
    for g in graphs:
        cls = classify_balancing_edges(g)
        assert cls == classify_balancing_edges_oracle(g)
        assert list(cls) == [e.id for e in g.edges]
        assert balancing_vertices(g) == balancing_vertices_oracle(g)
        k = _frustration_counts(g)
        several_unbalanced += len(k.unbalanced()) > 1
        cases |= {_edge_rule_case(k, e, cls[e.id]) for e in g.edges}
    assert several_unbalanced >= 200
    expected = {("loose", state, "none") for state in ("U=0", "U=1", "U>1")}
    for branch in ("non-tree", "tree"):
        expected |= {
            (branch, "U=0", "none"),
            (branch, "U=1", "total"),
            (branch, "U=1", "none"),
            (branch, "U>1", "partial"),
            (branch, "U>1", "none"),
        }
    expected |= {
        ("bridge", "U=0", "balanced K", "none"),
        ("bridge", "U=1", "balanced K", "partial"),
        ("bridge", "U>1", "balanced K", "partial"),
        ("bridge", "U=1", "unbalanced K", "partial"),
        ("bridge", "U=1", "unbalanced K", "none"),
        ("bridge", "U>1", "unbalanced K", "partial"),
        ("bridge", "U>1", "unbalanced K", "none"),
    }
    assert cases == expected


def test_balancing_edges_and_vertices_of_a_long_cycle_need_no_recursion(monkeypatch):
    import sys

    def refuse(limit):
        raise AssertionError("the balancing routines must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 30000
    edges = [link(f"c{i}", i, (i + 1) % n, -1 if i == n // 2 else 1) for i in range(n)]
    g = SignedGraph(n, edges)
    assert classify_balancing_edges(g) == {e.id: "total" for e in edges}
    assert balancing_vertices(g) == frozenset(range(n))


def test_min_balancing_set():
    g = SignedGraph(3, neg_triangle())
    s = min_balancing_set(g)
    assert len(s) == 1
    g2 = SignedGraph(6, neg_triangle(0) + neg_triangle(3))
    assert len(min_balancing_set(g2)) == 2


def test_min_balancing_set_caps_the_order_of_an_unbalanced_component():
    # 24 links in eight triangles: beyond the old cap on m, each component small
    g = SignedGraph(24, [e for i in range(8) for e in neg_triangle(3 * i)])
    s = min_balancing_set(g)
    assert s == {f"t{3 * i}a" for i in range(8)}
    assert is_balanced(g, g.edge_ids - s)
    cycle = [link(f"c{i}", i, (i + 1) % 21, -1 if i == 0 else 1) for i in range(21)]
    with pytest.raises(SgError, match=r"balancing-set cap exceeded \(component order 21 > 20\)"):
        min_balancing_set(SignedGraph(21, cycle))
    tree = [link(f"p{i}", i, i + 1, -1) for i in range(20)]
    assert min_balancing_set(SignedGraph(21, tree + [half("h", 7)])) == {"h"}


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
        7,
        neg_triangle()
        + [link("p", 2, 3, 1), link("q", 3, 4, 1), loop("l", 4, -1), loop("m", 6, 1)],
    )
    # loops and half edges first, then link blocks as the DFS closes them,
    # then isolated vertices without a loop or half edge
    assert blocks(g) == [
        ({4}, {"l"}),
        ({6}, {"m"}),
        ({3, 4}, {"q"}),
        ({2, 3}, {"p"}),
        ({0, 1, 2}, {"t0a", "t0b", "t0c"}),
        ({5}, set()),
    ]


def test_blocks_of_a_long_path_need_no_recursion(monkeypatch):
    import sys

    def refuse(limit):
        raise AssertionError("blocks must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 30000
    g = SignedGraph(n, [link(f"p{i}", i, i + 1, 1) for i in range(n - 1)])
    bl = blocks(g)
    assert len(bl) == n - 1
    assert all(len(edge_set) == 1 for _, edge_set in bl)
