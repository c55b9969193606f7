import copy
import pickle
import re
import sys

import pytest

import signedgraph
from signedgraph import (
    BalancePartition,
    Edge,
    EdgeKind,
    SgError,
    SignedGraph,
    circle_sign,
    components,
    degree_matrix,
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


def test_records_are_immutable_values_of_their_own_class():
    e, same_e = link("a", 0, 1, -1), Edge("a", EdgeKind.LINK, (0, 1), -1)
    g, same_g = SignedGraph(2, [e]), SignedGraph(2, (same_e,))
    part, same_part = (BalancePartition(((0,),), frozenset({1})) for _ in range(2))
    for record, same, field in ((e, same_e, "sign"), (g, same_g, "edges"), (part, same_part, "v0")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == same and hash(record) == hash(same)
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
    assert repr(e) == "Edge(id='a', kind=<EdgeKind.LINK: 'link'>, ends=(0, 1), sign=-1)"
    assert g != SignedGraph(2, [link("a", 0, 1, 1)])
    # equal field tuples, different classes
    assert BalancePartition(2, (e,)) != SignedGraph(2, (e,)) and SignedGraph(2, (e,)) != BalancePartition(2, (e,))
    assert e != ("a", EdgeKind.LINK, (0, 1), -1)


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


def test_graph_order_and_ends_must_be_ints_in_range():
    for n in (-1, "3", 2.0, True, None):
        with pytest.raises(SgError, match="order n must be an int"):
            SignedGraph(n, [])
    for e in (link("a", 0, 1.5, 1), link("a", 0, True, 1), half("a", 1.0), loop("a", "1", 1)):
        with pytest.raises(SgError, match="out of range"):
            SignedGraph(2, [e])
    with pytest.raises(SgError, match="edge 'a': vertex 2 out of range"):
        SignedGraph(2, [half("a", 2)])
    with pytest.raises(SgError, match="kind must be an EdgeKind"):
        Edge("a", "loose", ())
    assert SignedGraph(0, []).edges == ()


def test_ends_must_be_a_tuple_and_items_edges():
    for ends in ([0, 1], range(2), None):
        with pytest.raises(SgError, match="ends must be a tuple"):
            Edge("a", EdgeKind.LINK, ends, 1)
    for edges in ([("a", "link", (0, 1), 1)], [link("a", 0, 1, 1), "b"], [None], 5):
        with pytest.raises(SgError, match="edges must be an iterable of Edge objects"):
            SignedGraph(2, edges)


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


def _huge_n_message():
    """A 5,000-digit order is more digits than int() converts where the
    interpreter limits them (3.11, and 3.10 from 3.10.7); elsewhere it
    converts and exceeds the input-vertex cap."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return "line 2: expected 'n <order>'" if 0 < limit < 5000 else "input-vertex cap exceeded"


_TWO = parse("sg 1\nn 2\nedge a 1 2 -\nhalf h 1\n")

# (case, call, start of the SgError message): one raise site each
ERROR_PATHS = [
    ("second n", lambda: parse("sg 1\nn 2\nn 3\n"), "line 3: duplicate 'n' directive"),
    ("half, one field", lambda: parse("sg 1\nn 2\nhalf h\n"), "line 3: expected 'half <id> <v>'"),
    ("half, three fields", lambda: parse("sg 1\nn 2\nhalf h 1 2\n"), "line 3: expected 'half <id> <v>'"),
    ("half, vertex not an int", lambda: parse("sg 1\nn 2\nhalf h x\n"),
     "line 3: vertex index must be an integer"),
    ("half, vertex 0", lambda: parse("sg 1\nn 2\nhalf h 0\n"),
     "line 3: vertex index out of range in half edge 'h'"),
    ("half, vertex n + 1", lambda: parse("sg 1\nn 2\n\nhalf h 3\n"),
     "line 4: vertex index out of range in half edge 'h'"),
    ("loose, no id", lambda: parse("sg 1\nn 2\nloose\n"), "line 3: expected 'loose <id>'"),
    ("loose, two ids", lambda: parse("sg 1\nn 2\nloose a b\n"), "line 3: expected 'loose <id>'"),
    ("duplicate id in a file", lambda: parse("sg 1\nn 2\nedge a 1 2 +\nloose a\n"),
     "line 4: duplicate edge id 'a'"),
    ("empty input", lambda: parse(""), "line 1: expected magic line 'sg 1'"),
    ("no n line", lambda: parse("sg 1\n# only a comment\n"), "missing 'n' directive"),
    ("5,000-digit n", lambda: parse("sg 1\nn " + "9" * 5000 + "\n"), _huge_n_message()),
    ("loop with two ends", lambda: Edge("l", EdgeKind.LOOP, (0, 1), 1), "loop 'l' needs two equal endpoints"),
    ("loop with one end", lambda: Edge("l", EdgeKind.LOOP, (0,), 1), "loop 'l' needs two equal endpoints"),
    ("half edge with two ends", lambda: Edge("h", EdgeKind.HALF, (0, 1)), "half edge 'h' needs one endpoint"),
    ("half edge with no end", lambda: Edge("h", EdgeKind.HALF, ()), "half edge 'h' needs one endpoint"),
    ("edge lookup", lambda: _TWO.edge("zz"), "unknown edge id 'zz'"),
    ("restricted", lambda: _TWO.restricted({"a", "zz", "yy"}), "unknown edge ids ['yy', 'zz']"),
    ("sign of a half edge", lambda: edge_set_sign(_TWO, {"a", "h"}), "edge 'h' (half) has no sign"),
]


@pytest.mark.parametrize("case, call, message", ERROR_PATHS, ids=[c[0] for c in ERROR_PATHS])
def test_error_paths_raise_sgerror_naming_their_line(case, call, message):
    with pytest.raises(SgError, match="^" + re.escape(message)):
        call()


_DIGON = SignedGraph(2, [link("p", 0, 1, 1), link("m", 0, 1, -1)])

# (case, call, SgError message): an input that a routine's own copy of an
# input rule let through, or raised something else on
LET_THROUGH = [
    ("generalized_line_graph, a pair twice",
     lambda: signedgraph.generalized_line_graph(2, [(0, 1), (1, 0)], [0, 0]), "base graph must be simple"),
    ("construct_gramian, a +- digon", lambda: signedgraph.construct_gramian(_DIGON, 2),
     "an angle representation's graph must be simple"),
    ("root_system, n True", lambda: signedgraph.root_system("A", True), "n must be an int >= 1, got True"),
    ("rational_rank, a long second row", lambda: signedgraph.rational_rank([[1], [2, 3]]),
     "rank needs a rectangular matrix"),
    ("rational_rank, a short second row", lambda: signedgraph.rational_rank([[1, 2], [3]]),
     "rank needs a rectangular matrix"),
    ("rational_nullity, a long second row", lambda: signedgraph.rational_nullity([[1], [2, 3]]),
     "rank needs a rectangular matrix"),
    ("spectrum, a short second row", lambda: signedgraph.spectrum([[1, 2], [3]]), "spectrum needs a square matrix"),
    ("rational_rank, a NaN entry", lambda: signedgraph.rational_rank([[1, float("nan")]]), "rank needs finite entries"),
    ("rational_nullity, an infinite entry", lambda: signedgraph.rational_nullity([[float("-inf")], [1]]),
     "rank needs finite entries"),
    ("bareiss_determinant, an infinite entry", lambda: signedgraph.bareiss_determinant([[float("inf")]]),
     "determinant needs finite entries"),
    ("bareiss_determinant, a NaN entry", lambda: signedgraph.bareiss_determinant([[1, 0], [0, float("nan")]]),
     "determinant needs finite entries"),
    ("spectrum, an infinite entry", lambda: signedgraph.spectrum([[float("inf"), 1], [1, 0]]),
     "spectrum needs finite entries within float range"),
    ("spectrum, a NaN entry", lambda: signedgraph.spectrum([[0, 1], [1, float("nan")]]),
     "spectrum needs finite entries within float range"),
    ("spectrum, an int beyond float range", lambda: signedgraph.spectrum([[10**400, 1], [1, 0]]),
     "spectrum needs finite entries within float range"),
    ("max_matching_size, an end out of range", lambda: signedgraph.coloring.max_matching_size(2, [(0, 5)]),
     "vertex 5 out of range"),
    ("color_pair_capacity, an end out of range", lambda: signedgraph.color_pair_capacity(2, [(0, 5)]),
     "vertex 5 out of range"),
    ("color_pair_capacity, a loop", lambda: signedgraph.color_pair_capacity(3, [(0, 0)]), "graph must be simple"),
    ("color_pair_capacity, a one-end item", lambda: signedgraph.color_pair_capacity(3, [(0,)]),
     "graph must be simple"),
    ("catalog, a three-end item", lambda: signedgraph.catalog("all_positive", n=3, edge_list=[(0, 1, 2)]),
     "catalog base graph must be simple"),
    ("generalized_line_graph, an empty item", lambda: signedgraph.generalized_line_graph(2, [()], [0, 0]),
     "base graph must be simple"),
]


@pytest.mark.parametrize("case, call, message", LET_THROUGH, ids=[c[0] for c in LET_THROUGH])
def test_an_input_a_drifted_copy_let_through_raises_sg_error(case, call, message):
    with pytest.raises(SgError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["rational_rank", "rational_nullity", "bareiss_determinant", "spectrum"])
@pytest.mark.parametrize("entry", ["1", None, 1j, [1]])
def test_a_matrix_entry_that_is_not_a_real_number_raises_type_error(name, entry):
    with pytest.raises(TypeError, match=f"needs real number entries, got {type(entry).__name__}$"):
        getattr(signedgraph, name)([[0, entry], [entry, 0]])


def test_an_edge_list_that_is_read_twice_must_be_a_sequence():
    # an iterator would reach the second reading empty: a wrong answer, not an error
    for call in (lambda: signedgraph.generalized_line_graph(3, iter([(0, 1)]), [0, 0, 0]),
                 lambda: signedgraph.catalog("all_positive", n=3, edge_list=iter([(0, 1)]))):
        with pytest.raises(TypeError):
            call()


# the entry points that take a collection of edge ids
EDGE_ID_TAKERS = [
    "balance_closure", "balance_partition", "closure", "closure_by_circuits", "components",
    "contract_set", "delete_edges", "edge_set_sign", "enumerate_circles", "fundamental_system",
    "incidence_columns", "is_balanced", "is_frame_circuit", "is_independent", "rank",
]


@pytest.mark.parametrize("name", ["SignedGraph.restricted", *EDGE_ID_TAKERS])
def test_a_string_is_not_a_collection_of_edge_ids(name, sigma4):
    call = SignedGraph.restricted if name == "SignedGraph.restricted" else getattr(signedgraph, name)
    # as a frozenset, "ab" would be {"a", "b"}: two ids of sigma4
    with pytest.raises(SgError, match="not the string 'ab'"):
        call(sigma4, "ab")


def test_degree_counts_edge_ends_and_checks_its_vertex():
    # a link plus a half edge at vertex 0: two edge ends there, while the
    # degree matrix counts the half edge twice, as L = H H^T needs
    g = SignedGraph(2, [link("a", 0, 1, 1), half("h", 0)])
    assert g.degree(0) == 2 and degree_matrix(g)[0][0] == 3
    assert SignedGraph(1, [loop("l", 0, -1)]).degree(0) == 2
    for v in ("a", True, 0.0, None, -1, 2):
        with pytest.raises(SgError, match=re.escape(f"vertex {v!r} out of range")):
            g.degree(v)


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
    # DFS from vertex 0 scanning ids in order goes down b, a and f; BFS by id
    # would take {b, d, e}, BFS in file order {b, d, f} and Kruskal by id
    # {a, b, e}, so this pins both the search and the id order
    g = out_of_order()
    assert spanning_forest(g) == {"a", "b", "f"}
    assert fundamental_system(g, {"a", "b", "f"}) == {
        "d": {"a", "b", "d"}, "e": {"a", "e", "f"},
    }
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
                assert enumerate_circles(g, t | {eid}) == [circle]
    with pytest.raises(SgError, match="not a forest"):
        fundamental_system(out_of_order(), {"a", "b", "d"})
    with pytest.raises(SgError, match="not maximal"):
        fundamental_system(out_of_order(), {"a"})
