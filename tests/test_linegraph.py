import pytest

from collections import Counter
from itertools import permutations, product

from signedgraph import (
    BidirectedGraph,
    Edge,
    SgError,
    SignedGraph,
    adjacency_matrix,
    generalized_line_graph,
    harary_norman,
    line_adjacency_identity,
    line_graph,
    negate,
    link,
    orient,
    reduced_line_graph,
    spectrum,
    switch_set,
    switching_equivalent,
    switching_isomorphic,
)
from conftest import random_graph, seeded


def path3():
    return SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, -1)])


def test_line_graph_of_path():
    res = line_graph(path3())
    assert res.vertex_labels == ("a", "b")
    assert res.graph.n == 2
    assert len(res.graph.edges) == 1
    e = res.graph.edges[0]
    assert e.id == "a|b@2"
    # sign = -tau(v2,a)*tau(v2,b); orient gives tau(a)=( +1,-1 ), tau(b)=(+1,+1)
    assert e.sign == 1


def test_line_graph_rejects_non_links(sigma4):
    with pytest.raises(SgError):
        line_graph(sigma4)


def test_parallel_edges_give_parallel_line_edges():
    g = SignedGraph(2, [link("a", 0, 1, 1), link("b", 0, 1, -1)])
    res = line_graph(g)
    assert len(res.graph.edges) == 2  # one line edge per shared vertex
    signs = sorted(e.sign for e in res.graph.edges)
    assert signs == [-1, 1]  # a negative digon in the source stays mixed
    assert reduced_line_graph(g).graph.edges == ()


def test_line_identity_sigma4_links(sigma4):
    g = sigma4.with_edges(e for e in sigma4.edges if e.id != "h")
    a, rhs = line_adjacency_identity(g)
    assert a == rhs


def test_line_identity_random():
    rng = seeded(81)
    for _ in range(40):
        g = random_graph(rng, n_max=6, m_max=10, kinds="links")
        a, rhs = line_adjacency_identity(g)
        assert a == rhs


def test_line_eigenvalue_bound():
    rng = seeded(82)
    for _ in range(20):
        g = random_graph(rng, n_max=6, m_max=10, kinds="links")
        lam = line_graph(g).graph
        if not lam.edges:
            continue
        ev = spectrum(adjacency_matrix(lam))
        assert max(ev) <= 2 + 1e-9


def test_reorientation_switches_line_graph():
    # flipping both ends of one source edge switches the corresponding
    # line vertex
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, -1), link("c", 0, 2, 1)])
    base = orient(g)
    tau = dict(base.tau)
    for slot in range(2):
        tau[("b", slot)] = -tau[("b", slot)]
    flipped = BidirectedGraph(g, tau)
    l1 = line_graph(base).graph
    l2 = line_graph(flipped).graph
    assert l2 == switch_set(l1, [1])  # line vertex 1 is edge b
    assert switching_equivalent(l1, l2) is not None


def test_line_graph_of_switched_source_is_switching_equivalent():
    rng = seeded(83)
    done = 0
    while done < 15:
        g = random_graph(rng, n_max=5, m_max=8, kinds="links")
        if not g.edges:
            continue
        s = [v for v in range(g.n) if rng.random() < 0.5]
        l1 = line_graph(g).graph
        l2 = line_graph(switch_set(g, s)).graph
        assert switching_equivalent(l1, l2) is not None
        done += 1


def test_negate():
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, -1), link("c", 0, 2, 1)])
    ng = negate(g)
    assert negate(ng) == g
    assert [e.sign for e in ng.edges] == [-1, 1, -1]
    a1 = adjacency_matrix(g)
    a2 = adjacency_matrix(ng)
    assert a2 == [[-x for x in row] for row in a1]


def test_harary_norman_examples():
    # head-to-tail pairs only: directed path a->b gives one positive edge
    res = harary_norman(path3())
    assert all(e.sign == 1 for e in res.graph.edges)
    # head-to-head at the middle vertex: orientations with tau(v,a)=tau(v,b)
    g = SignedGraph(3, [link("a", 0, 1, -1), link("b", 1, 2, 1)])
    b = orient(g)
    assert b.tau[("a", 1)] == b.tau[("b", 0)] == 1
    assert harary_norman(b).graph.edges == ()
    # all-positive triangle with the canonical orientation
    tri = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 0, 2, 1)])
    hn = harary_norman(tri).graph
    full = line_graph(tri).graph
    assert set(e.id for e in hn.edges) <= set(e.id for e in full.edges)


def test_generalized_line_graph_k2():
    src, glg = generalized_line_graph(2, [(0, 1)], [1, 0])
    assert src.n == 3  # base K2 plus one petal vertex
    red = reduced_line_graph(src).graph
    assert red.n == glg.n
    phi = switching_isomorphic(red, glg)
    assert phi is not None


def test_generalized_line_graph_c4():
    edge_list = [(0, 1), (1, 2), (2, 3), (0, 3)]
    src, glg = generalized_line_graph(4, edge_list, [1, 2, 0, 0])
    red = reduced_line_graph(src).graph
    assert red.n == glg.n == 10
    assert len(red.edges) == len(glg.edges) == 20
    assert switching_isomorphic(red, glg) is not None
    # line-graph side: eigenvalues at most 2; the negated convention
    # (adjacency H^T H - 2I) is bounded below by -2
    ev = spectrum(adjacency_matrix(glg))
    assert max(ev) <= 2 + 1e-9
    assert min(spectrum(adjacency_matrix(negate(glg)))) >= -2 - 1e-9


def test_switching_isomorphic_negative_cases():
    tri_pos = SignedGraph(
        3, [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 0, 2, 1)]
    )
    tri_neg = SignedGraph(
        3, [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 0, 2, -1)]
    )
    assert switching_isomorphic(tri_pos, tri_neg) is None
    path = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, 1)])
    assert switching_isomorphic(tri_pos, path) is None
    # relabelled and switched copy is found
    relabel = SignedGraph(
        3, [link("x", 1, 2, -1), link("y", 0, 2, -1), link("z", 0, 1, 1)]
    )
    assert switching_isomorphic(tri_pos, relabel) is not None


def signed_multiset(g, phi, zeta):
    """The edges of g moved by phi and switched by zeta, ids dropped."""
    out = Counter()
    for e in g.edges:
        sign = e.sign
        if e.is_ordinary:
            sign = zeta[e.ends[0]] * sign * zeta[e.ends[1]]
        out[e.kind, tuple(sorted(phi[v] for v in e.ends)), sign] += 1
    return out


def brute_force_isomorphic(g1, g2):
    target = signed_multiset(g2, range(g2.n), [1] * g2.n)
    return g1.n == g2.n and any(
        signed_multiset(g1, phi, zeta) == target
        for phi in permutations(range(g1.n))
        for zeta in product((1, -1), repeat=g1.n)
    )


def disguised_copy(rng, g):
    """g relabelled, switched, renamed and shuffled; one sign flipped at
    random in most copies."""
    phi = list(range(g.n))
    rng.shuffle(phi)
    zeta = [rng.choice((1, -1)) for _ in range(g.n)]
    flip = rng.randrange(len(g.edges) + 1)
    edges = []
    for i, e in enumerate(g.edges):
        sign = e.sign
        if e.is_ordinary:
            sign *= zeta[e.ends[0]] * zeta[e.ends[1]] * (-1 if i == flip else 1)
        edges.append(Edge("x" + e.id, e.kind, tuple(phi[v] for v in e.ends), sign))
    rng.shuffle(edges)
    return SignedGraph(g.n, edges)


def test_switching_isomorphic_matches_brute_force():
    rng = seeded(77)
    found = 0
    kinds = set()
    for _ in range(150):
        g1 = random_graph(rng, n_max=5, m_max=8)
        kinds |= {e.kind.value for e in g1.edges}
        links = Counter(frozenset(e.ends) for e in g1.edges if e.kind.value == "link")
        if any(c > 1 for c in links.values()):
            kinds.add("parallel links")
        g2 = disguised_copy(rng, g1) if rng.random() < 0.7 else random_graph(rng, n_max=5, m_max=8)
        phi = switching_isomorphic(g1, g2)
        assert (phi is not None) == brute_force_isomorphic(g1, g2)
        if phi is not None:
            found += 1
            target = signed_multiset(g2, range(g2.n), [1] * g2.n)
            assert any(
                signed_multiset(g1, phi, zeta) == target
                for zeta in product((1, -1), repeat=g1.n)
            )
    assert 30 < found < 140
    assert kinds == {"link", "loop", "half", "loose", "parallel links"}
