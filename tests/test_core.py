import pytest

from signedgraph import (
    Edge,
    EdgeKind,
    SgError,
    SignedGraph,
    circle_sign,
    components,
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
from conftest import random_graph, seeded


def test_edge_validation():
    with pytest.raises(SgError):
        link("e", 0, 0, 1)  # a link needs distinct ends
    with pytest.raises(SgError):
        Edge("e", EdgeKind.LINK, (0, 1), 0)
    with pytest.raises(SgError):
        Edge("h", EdgeKind.HALF, (0,), 1)  # half edges are unsigned
    with pytest.raises(SgError):
        Edge("l", EdgeKind.LOOSE, (0,))


def test_edge_ids_that_would_not_read_back_are_rejected():
    # parse splits on whitespace and cuts at "#"; CLI edge lists split on ","
    for eid in ("", "a b", "a\tb", "a\u00a0b", "a\u2028b", "#x", "x#", "a,b", 7):
        for make in (
            lambda: link(eid, 0, 1, 1),
            lambda: loop(eid, 0, -1),
            lambda: half(eid, 0),
            lambda: loose(eid),
        ):
            with pytest.raises(SgError, match="bad edge id"):
                make()
    g = SignedGraph(2, [link("a-b.1|x@2", 0, 1, 1), loose("é")])
    assert parse(serialize(g)) == g


def test_duplicate_ids_rejected():
    with pytest.raises(SgError):
        SignedGraph(2, [link("e", 0, 1, 1), link("e", 0, 1, -1)])


def test_parse_roundtrip(sigma4):
    assert sigma4.n == 4
    assert len(sigma4.edges) == 7
    assert sigma4.edge("b").sign == -1
    assert sigma4.edge("h").kind is EdgeKind.HALF
    again = parse(serialize(sigma4))
    assert again == sigma4


def test_parse_errors_name_the_line():
    with pytest.raises(SgError, match="line 1"):
        parse("not a graph\n")
    with pytest.raises(SgError, match="line 3"):
        parse("sg 1\nn 2\nedge a 1 5 +\n")
    with pytest.raises(SgError, match="line 3"):
        parse("sg 1\nn 2\nedge a 1 2 ?\n")
    with pytest.raises(SgError, match="'n' directive"):
        parse("sg 1\nedge a 1 2 +\nn 2\n")


def test_parse_raises_only_sgerror():
    # '²'.isdigit() is true, but int('²') fails
    with pytest.raises(SgError, match="line 2"):
        parse("sg 1\nn ²\n")
    with pytest.raises(SgError, match="line 3: input is not valid UTF-8"):
        parse(b"sg 1\nn 2\nedge \xff 1 2 +\n")


def test_parse_comments_and_loops():
    g = parse("sg 1\n# comment\nn 2\nedge a 1 1 -  # a negative loop\nloose x\n")
    assert g.edge("a").kind is EdgeKind.LOOP
    assert g.edge("x").kind is EdgeKind.LOOSE


def test_serialize_deterministic(sigma4):
    assert serialize(sigma4) == serialize(sigma4)


def test_components():
    g = SignedGraph(5, [link("a", 0, 1, 1), link("b", 3, 4, -1), loose("x")])
    assert components(g) == [(0, 1), (2,), (3, 4)]
    assert components(g, ["a"]) == [(0, 1), (2,), (3,), (4,)]


def test_circles_triangle_plus_chord():
    g = SignedGraph(
        3,
        [
            link("a", 0, 1, 1),
            link("b", 1, 2, 1),
            link("c", 0, 2, -1),
            link("d", 0, 1, -1),  # parallel to a: digon
        ],
    )
    circles = enumerate_circles(g)
    # triangle twice (via a or d), one digon
    assert frozenset({"a", "d"}) in circles
    assert frozenset({"a", "b", "c"}) in circles
    assert frozenset({"d", "b", "c"}) in circles
    assert len(circles) == 3
    assert circle_sign(g, {"a", "d"}) == -1
    assert circle_sign(g, {"a", "b", "c"}) == -1


def test_loop_is_a_circle():
    g = SignedGraph(1, [loop("l", 0, -1), half("h", 0)])
    assert enumerate_circles(g) == [frozenset({"l"})]


def test_circle_count_k4():
    g = SignedGraph(
        4,
        [link(f"{i}{j}", i, j, 1) for i in range(4) for j in range(i + 1, 4)],
    )
    assert len(enumerate_circles(g)) == 7  # 4 triangles + 3 quadrilaterals


def test_spanning_forest_and_fundamental_system():
    g = SignedGraph(
        4,
        [link(f"{i}{j}", i, j, 1) for i in range(4) for j in range(i + 1, 4)],
    )
    t = spanning_forest(g)
    assert len(t) == 3
    system = fundamental_system(g, t)
    assert len(system) == 3
    for e, circ in system.items():
        assert e in circ
        assert circ - {e} <= t
        assert circ in enumerate_circles(g)
    # every circle of K4 is a symmetric difference of fundamental circles
    from itertools import combinations

    spans = set()
    basis = list(system.values())
    for r in range(1, 4):
        for combo in combinations(basis, r):
            acc = frozenset()
            for c in combo:
                acc = acc ^ c
            spans.add(acc)
    for c in enumerate_circles(g):
        assert c in spans
    # BFS from vertex 0 scanning ids in order queues 1 before 2 and reaches
    # 3 by e; Kruskal by id would take a, and BFS in file order would take f
    g = out_of_order()
    assert spanning_forest(g) == {"b", "d", "e"}
    assert fundamental_system(g, {"b", "d", "e"}) == {
        "f": {"b", "d", "e", "f"}, "a": {"a", "b", "d"},
    }


def out_of_order():
    return SignedGraph(
        4,
        [link("f", 2, 3, 1), link("e", 1, 3, 1), link("d", 0, 2, 1),
         link("b", 0, 1, 1), link("a", 1, 2, 1)],
    )


def kruskal_forest(g, rng):
    """A maximal forest of g's links, taken greedily in random order."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    links = [e for e in g.edges if e.kind is EdgeKind.LINK]
    rng.shuffle(links)
    forest = set()
    for e in links:
        a, b = find(e.ends[0]), find(e.ends[1])
        if a != b:
            parent[a] = b
            forest.add(e.id)
    return frozenset(forest)


def test_fundamental_circles_are_the_circles_of_t_plus_e():
    rng = seeded(7)
    for _ in range(150):
        g = random_graph(rng, n_max=7, m_max=12)
        for t in (spanning_forest(g), kruskal_forest(g, rng)):
            system = fundamental_system(g, t)
            ordinary = {e.id for e in g.edges if e.is_ordinary}
            assert system.keys() == ordinary - t
            for eid, circle in system.items():
                assert enumerate_circles(g, t | {eid}, cap=len(t) + 1) == [circle]
    with pytest.raises(SgError, match="not a forest"):
        fundamental_system(out_of_order(), {"a", "b", "d"})
    with pytest.raises(SgError, match="not maximal"):
        fundamental_system(out_of_order(), {"a"})


def test_circle_enumeration_cap():
    g = SignedGraph(
        4,
        [link(f"{i}{j}", i, j, 1) for i in range(4) for j in range(i + 1, 4)],
    )
    with pytest.raises(SgError):
        enumerate_circles(g, cap=3)
