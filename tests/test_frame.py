import time
from itertools import combinations

import pytest

from signedgraph import (
    SgError,
    SignedGraph,
    balance_closure,
    closed_sets,
    closure,
    closure_by_circuits,
    enumerate_frame_circuits,
    half,
    is_frame_circuit,
    is_independent,
    link,
    loop,
    loose,
    rank,
)
from conftest import random_graph, seeded


def neg_triangle(offset, tag):
    return [
        link(f"{tag}a", offset + 0, offset + 1, 1),
        link(f"{tag}b", offset + 1, offset + 2, 1),
        link(f"{tag}c", offset + 0, offset + 2, -1),
    ]


def test_positive_circle_is_circuit():
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, -1), link("c", 0, 2, -1)])
    fc = is_frame_circuit(g, {"a", "b", "c"})
    assert fc is not None and fc.kind == "positive_circle"


def test_loose_edge_is_circuit():
    g = SignedGraph(1, [loose("x")])
    fc = is_frame_circuit(g, {"x"})
    assert fc is not None and fc.kind == "loose_edge"


def test_tight_handcuff():
    # two negative triangles sharing exactly one vertex
    g = SignedGraph(5, neg_triangle(0, "s") + [
        link("ta", 2, 3, 1), link("tb", 3, 4, 1), link("tc", 2, 4, -1)])
    s = {"sa", "sb", "sc", "ta", "tb", "tc"}
    fc = is_frame_circuit(g, s)
    assert fc is not None and fc.kind == "tight_handcuff"


def test_loose_handcuff_with_path():
    g = SignedGraph(
        7,
        neg_triangle(0, "s")
        + neg_triangle(4, "t")
        + [link("p1", 2, 3, 1), link("p2", 3, 4, 1)],
    )
    fcs = enumerate_frame_circuits(g)
    kinds = {fc.kind for fc in fcs}
    assert "loose_handcuff" in kinds
    lh = next(fc for fc in fcs if fc.kind == "loose_handcuff")
    assert lh.path == frozenset({"p1", "p2"})


def test_half_edge_as_negative_circle():
    # negative triangle and a half edge joined by a path: loose handcuff
    g = SignedGraph(
        5, neg_triangle(0, "s") + [link("p", 2, 3, 1), link("q", 3, 4, 1), half("h", 4)]
    )
    fcs = enumerate_frame_circuits(g)
    lh = [fc for fc in fcs if fc.kind == "loose_handcuff"]
    assert len(lh) == 1
    assert lh[0].edge_set == frozenset({"sa", "sb", "sc", "p", "q", "h"})


def test_pendant_negative_loop_handcuff():
    g = SignedGraph(
        4, neg_triangle(0, "s") + [link("p", 2, 3, 1), loop("l", 3, -1)]
    )
    fcs = enumerate_frame_circuits(g)
    assert any(
        fc.kind == "loose_handcuff"
        and fc.edge_set == frozenset({"sa", "sb", "sc", "p", "l"})
        for fc in fcs
    )


def test_sigma4_circuits(sigma4):
    fcs = enumerate_frame_circuits(sigma4)
    by_kind = {}
    for fc in fcs:
        by_kind.setdefault(fc.kind, []).append(fc.edge_set)
    # positive circles: abf (sign + ?): a=+,b=-,f=- => +; abcd: +*-*+*- = +;
    # cf? c=+,f=-,d=-? check via the library's own classification count
    assert len(fcs) == 8
    for fc in fcs:
        assert is_frame_circuit(sigma4, fc.edge_set) is not None


def test_circuits_are_dependent_and_minimal():
    rng = seeded(41)
    for _ in range(25):
        g = random_graph(rng, n_max=5, m_max=7)
        for fc in enumerate_frame_circuits(g, n_cap=g.n, edge_cap=len(g.edges)):
            s = fc.edge_set
            assert not is_independent(g, s)
            for e in s:
                # minimality: every proper subset is independent
                assert is_independent(g, s - {e})


def test_is_frame_circuit_agrees_with_the_enumeration():
    rng = seeded(43)
    for _ in range(300):
        g = random_graph(rng, n_max=6, m_max=10)
        found = {fc.edge_set: fc for fc in enumerate_frame_circuits(g)}
        ids = sorted(g.edge_ids)
        subsets = [*found, *(frozenset(i for i in ids if rng.random() < 0.5) for _ in range(5))]
        for s in subsets:
            assert is_frame_circuit(g, s) == found.get(s)


def test_is_frame_circuit_of_a_whole_signed_k10_returns_at_once():
    k10 = SignedGraph(10, [link(f"e{i}_{j}", i, j, -1 if (i + j) % 3 else 1)
                           for i in range(10) for j in range(i + 1, 10)])
    start = time.perf_counter()
    assert is_frame_circuit(k10, k10.edge_ids) is None
    assert time.perf_counter() - start < 1.0


def test_rank_formula(sigma4):
    assert rank(sigma4) == 4
    assert rank(sigma4, set()) == 0
    assert rank(sigma4, {"a"}) == 1
    assert rank(sigma4, {"a", "b", "c"}) == 3
    assert rank(sigma4, {"a", "b", "c", "d", "e"}) == 4


def test_balance_closure_p2_in_c3():
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 0, 2, 1)])
    assert balance_closure(g, {"a", "b"}) == frozenset({"a", "b", "c"})


def test_balance_closure_no_spurious_edges():
    g = SignedGraph(
        4,
        [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 0, 2, 1), link("d", 2, 3, 1)],
    )
    assert balance_closure(g, {"a", "b", "c"}) == frozenset({"a", "b", "c"})


def test_closure_includes_unbalanced_vertex_support(sigma4):
    # d,e form an unbalanced component on {0,3}: closure adds every edge
    # with all endpoints inside V0
    out = closure(sigma4, {"d", "e"})
    assert {"d", "e"} <= out
    # the whole graph is not inside V0 = {0,3}; a,b,c,f,h have ends outside
    assert "a" not in out and "h" not in out


def test_closure_equals_circuit_closure_exhaustive():
    rng = seeded(42)
    for _ in range(12):
        g = random_graph(rng, n_max=4, m_max=6)
        ids = sorted(g.edge_ids)
        for r in range(len(ids) + 1):
            for combo in combinations(ids, r):
                s = frozenset(combo)
                assert closure(g, s) == closure_by_circuits(g, s)


def test_closure_equals_circuit_closure_random():
    # beyond the exhaustive sizes above: large random subsets of graphs
    # with 8 to 14 edges
    rng = seeded(44)
    graphs = 0
    while graphs < 40:
        g = random_graph(rng, n_max=8, m_max=14)
        if len(g.edges) < 8:
            continue
        graphs += 1
        ids = sorted(g.edge_ids)
        for _ in range(4):
            s = frozenset(rng.sample(ids, rng.randint(len(ids) // 2, len(ids))))
            assert closure(g, s) == closure_by_circuits(g, s)


def test_closure_of_long_path_closes_the_cycle():
    def cycle(negatives):
        return SignedGraph(
            30, [link(f"e{i}", i, (i + 1) % 30, -1 if i in negatives else 1) for i in range(30)]
        )

    path = frozenset(f"e{i}" for i in range(29))
    g = cycle({2, 7, 20, 29})
    assert rank(g, path) == 29
    assert closure(g, path) == g.edge_ids
    # with a negative cycle the closing edge is not spanned
    assert closure(cycle({2, 7, 20}), path) == path


def test_closure_laws():
    rng = seeded(43)
    for _ in range(10):
        g = random_graph(rng, n_max=4, m_max=6)
        ids = sorted(g.edge_ids)
        for r in range(len(ids) + 1):
            for combo in combinations(ids, r):
                s = frozenset(combo)
                c = closure(g, s)
                assert s <= c  # extensive
                assert closure(g, c) == c  # idempotent
        # monotone on a few nested pairs
        for i in range(len(ids)):
            s1 = frozenset(ids[:i])
            s2 = frozenset(ids[: i + 1])
            assert closure(g, s1) <= closure(g, s2)


def test_closed_sets_lattice(sigma4):
    lat = closed_sets(sigma4)
    elems = set(lat.elements)
    assert sigma4.edge_ids in elems
    for s in elems:
        assert closure(sigma4, s) == s
    # closed under intersection
    for a in lat.elements:
        for b in lat.elements:
            assert closure(sigma4, a & b) == (a & b) or (a & b) in elems


def test_closed_sets_cap():
    g = SignedGraph(9, [link(f"e{i}", i % 9, (i + 1) % 9, 1) for i in range(17)])
    with pytest.raises(SgError):
        closed_sets(g)


def test_independence_matches_rank():
    rng = seeded(44)
    for _ in range(15):
        g = random_graph(rng, n_max=5, m_max=7)
        ids = sorted(g.edge_ids)
        for r in range(min(len(ids), 5) + 1):
            for combo in combinations(ids, r):
                s = frozenset(combo)
                assert is_independent(g, s) == (rank(g, s) == len(s))
