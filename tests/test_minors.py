from signedgraph import (
    EdgeKind,
    SignedGraph,
    balance_partition,
    contract_edge,
    contract_set,
    delete_edges,
    half,
    is_balanced,
    link,
    loop,
    loose,
    rank,
    switching_equivalent,
)
from conftest import random_graph, seeded


def test_delete(sigma4):
    g = delete_edges(sigma4, ["d", "e"])
    assert g.edge_ids == frozenset("abcfh")
    assert g.n == 4


def test_contract_positive_link():
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, -1)])
    g2, tr = contract_edge(g, "a")
    assert g2.n == 2
    assert tr.vertex_map == {0: 0, 1: 0, 2: 1}
    assert g2.edge("b").ends == (0, 1)
    assert g2.edge("b").sign == -1


def test_contract_negative_link_switches_first():
    # after contracting a negative link the digon partner becomes a
    # negative loop, not a positive one
    g = SignedGraph(2, [link("a", 0, 1, -1), link("b", 0, 1, 1)])
    g2, _ = contract_edge(g, "a")
    assert g2.n == 1
    e = g2.edge("b")
    assert e.kind is EdgeKind.LOOP
    assert e.sign == -1


def test_contract_positive_loop_and_loose():
    g = SignedGraph(1, [loop("l", 0, 1), loose("x")])
    g2, _ = contract_edge(g, "l")
    assert g2.n == 1 and g2.edge_ids == frozenset({"x"})
    g3, _ = contract_edge(g2, "x")
    assert g3.n == 1 and not g3.edges


def test_contract_negative_loop_drops_vertex():
    g = SignedGraph(
        2, [loop("l", 1, -1), link("a", 0, 1, 1), loop("m", 1, 1), half("h", 1)]
    )
    g2, tr = contract_edge(g, "l")
    assert g2.n == 1
    assert tr.vertex_map == {0: 0, 1: None}
    assert g2.edge("a").kind is EdgeKind.HALF  # link lost an endpoint
    assert g2.edge("m").kind is EdgeKind.LOOSE
    assert g2.edge("h").kind is EdgeKind.LOOSE


def test_contract_half_edge(sigma4):
    g2, tr = contract_edge(sigma4, "h")
    assert g2.n == 3
    assert tr.vertex_map[2] is None
    assert g2.edge("b").kind is EdgeKind.HALF
    assert g2.edge("f").kind is EdgeKind.HALF
    assert g2.edge("c").kind is EdgeKind.HALF


def test_contract_set_balanced_component():
    g = SignedGraph(
        3, [link("a", 0, 1, -1), link("b", 1, 2, 1), link("c", 0, 2, -1)]
    )
    g2, tr = contract_set(g, ["a"])
    # one balanced component {0,1}, one singleton {2}
    assert g2.n == 2
    assert tr.vertex_map == {0: 0, 1: 0, 2: 1}
    # b and c become parallel links; signs are canonical (all-positive circle
    # signs preserved: b,c formed a positive circle with a)
    sb, sc = g2.edge("b").sign, g2.edge("c").sign
    assert sb * sc == 1  # digon b,c is positive since circle abc was positive


def test_contract_set_unbalanced_component(sigma4):
    # contract a negative digon: the endpoints 0 and 3 form an unbalanced
    # component and vanish; vertices 1 and 2 survive as singletons
    g2, tr = contract_set(sigma4, ["d", "e"])
    assert g2.n == 2
    assert tr.vertex_map == {0: None, 3: None, 1: 0, 2: 1}
    # links that lost an endpoint degrade to half edges
    assert g2.edge("a").kind is EdgeKind.HALF
    assert g2.edge("c").kind is EdgeKind.HALF


def test_contract_set_rank_additivity():
    rng = seeded(31)
    for _ in range(40):
        g = random_graph(rng, n_max=5, m_max=8)
        ids = sorted(g.edge_ids)
        if not ids:
            continue
        s = frozenset(ids[: len(ids) // 2])
        gc, _ = contract_set(g, s)
        # rank(Sigma) = rank(S) + rank(Sigma/S)
        assert rank(g) == rank(g, s) + rank(gc)


def test_delete_contract_commute_up_to_switching():
    rng = seeded(32)
    done = 0
    while done < 30:
        g = random_graph(rng, n_max=5, m_max=8)
        ids = sorted(g.edge_ids)
        if len(ids) < 2:
            continue
        s1 = frozenset(ids[:1])
        s2 = frozenset(ids[-1:])
        a, _ = contract_set(delete_edges(g, s1), s2)
        b = delete_edges(contract_set(g, s2)[0], s1)
        assert switching_equivalent(a, b) is not None
        done += 1


def test_contracted_balanced_parts_become_all_positive():
    rng = seeded(33)
    for _ in range(30):
        g = random_graph(rng, n_max=6, m_max=9)
        ids = sorted(g.edge_ids)
        s = frozenset(ids[::2])
        part = balance_partition(g, s)
        if not part.pib:
            continue
        # the contraction switched g so that s-edges inside balanced
        # components are all positive before relabelling; verify via the
        # definitional property: s restricted to balanced components is
        # balanced in g
        sub = frozenset(
            e for e in s if g.edge(e).ends and all(v not in part.v0 for v in g.edge(e).ends)
        )
        assert is_balanced(g, sub)


def test_contract_edge_is_contract_set_of_one_edge():
    # contract_edge(g, e) == contract_set(g, {e}), graph and trace, and the
    # vertex map follows the case table in contract_edge's docstring
    rng = seeded(34)
    seen = set()
    for _ in range(120):
        g = random_graph(rng, n_max=6, m_max=9)
        for e in g.edges:
            got = contract_edge(g, e.id)
            assert got == contract_set(g, [e.id])
            seen.add((e.kind, e.sign))
            vmap = got[1].vertex_map
            if e.kind is EdgeKind.LINK:
                u, v = sorted(e.ends)
                assert vmap == {w: u if w == v else w - (w > v) for w in range(g.n)}
            elif e.kind is EdgeKind.HALF or e.sign == -1:
                (v,) = set(e.ends)
                assert vmap == {w: None if w == v else w - (w > v) for w in range(g.n)}
            else:
                assert vmap == {w: w for w in range(g.n)}
                assert got[0] == delete_edges(g, [e.id])
    assert seen == {
        (EdgeKind.LINK, 1), (EdgeKind.LINK, -1), (EdgeKind.LOOP, 1),
        (EdgeKind.LOOP, -1), (EdgeKind.HALF, None), (EdgeKind.LOOSE, None),
    }
