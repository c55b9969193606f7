"""Property tests: the independent routes to one quantity agree on generated
graphs of all four edge kinds, the text format round-trips, graphs built
without checks (parse, switchings, minors) are the graphs the public
constructors build, and switching changes no switching invariant.

Runs are derandomized, so every run tries the same examples."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from signedgraph import (
    Edge,
    SgError,
    SignedGraph,
    balance_partition,
    characteristic_polynomial,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    chromatic_via_expansion,
    classify_balancing_edges,
    closure,
    contract_edge,
    contract_set,
    count_proper,
    count_regions_by_sign_vectors,
    delete_edges,
    enumerate_acyclic,
    half,
    link,
    loop,
    loose,
    parse,
    rank,
    region_count,
    serialize,
    switch,
    switch_set,
    switching_equivalent,
)
from signedgraph.core import delete_vertices

PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


def id_ok(eid):
    """The edge-id rule: nonempty, no whitespace, "#" or ","."""
    return bool(eid) and not any(c.isspace() or c in "#," for c in eid)


edge_ids = st.text(min_size=1, max_size=6).filter(id_ok)


@st.composite
def graphs(draw, n_max=5, m_max=8, ids=None):
    """A signed graph with links, loops, half and loose edges; ids e0, e1, ...
    unless an id strategy is given."""
    n = draw(st.integers(1, n_max))
    m = draw(st.integers(0, m_max))
    if ids is None:
        names = [f"e{i}" for i in range(m)]
    else:
        names = draw(st.lists(ids, min_size=m, max_size=m, unique=True))
    vertex = st.integers(0, n - 1)
    sign = st.sampled_from((1, -1))
    edges = []
    for eid in names:
        kind = draw(st.sampled_from(("link", "link", "link", "loop", "half", "loose")))
        if kind == "link" and n >= 2:
            u, v = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
            edges.append(link(eid, u, v, draw(sign)))
        elif kind == "loop":
            edges.append(loop(eid, draw(vertex), draw(sign)))
        elif kind == "half":
            edges.append(half(eid, draw(vertex)))
        else:
            edges.append(loose(eid))
    return SignedGraph(n, edges)


@PROPERTY
@given(graphs())
def test_every_chromatic_route_agrees(g):
    chi = chromatic_poly_delcon(g)
    chi_star = chromatic_poly_delcon(g, zero_free=True)
    assert chi == chromatic_poly_subset(g) == chromatic_via_expansion(g)
    assert chi == characteristic_polynomial(g)
    assert chi_star == chromatic_poly_subset(g, zero_free=True)
    for k in (0, 1, 2):
        assert count_proper(g, k) == chi(2 * k + 1)
        assert count_proper(g, k, zero_free=True) == chi_star(2 * k)


@PROPERTY
@given(graphs(n_max=5, m_max=7))
def test_region_formula_equals_sign_vectors_and_acyclic_count(g):
    formula = region_count(g).region_count
    assert formula == count_regions_by_sign_vectors(g) == enumerate_acyclic(g)


@PROPERTY
@given(graphs(n_max=6, m_max=10, ids=edge_ids))
def test_parse_inverts_serialize(g):
    assert parse(serialize(g)) == g


@PROPERTY
@given(st.text(max_size=4))
def test_an_edge_id_is_accepted_exactly_when_it_reads_back(eid):
    try:
        g = SignedGraph(1, [half(eid, 0)])
    except SgError:
        assert not id_ok(eid)
    else:
        assert id_ok(eid) and parse(serialize(g)) == g


def subset(draw, items):
    return [x for x in items if draw(st.booleans())]


def assert_as_if_public(g):
    """g equals its rebuild through the public constructors, which check
    everything, down to the id index and its order."""
    again = SignedGraph(g.n, [Edge(e.id, e.kind, e.ends, e.sign) for e in g.edges])
    assert type(g.edges) is tuple
    assert again == g
    assert list(again._by_id.items()) == list(g._by_id.items())


@PROPERTY
@given(st.data(), graphs(n_max=6, m_max=10, ids=edge_ids))
def test_graphs_built_without_checks_pass_the_public_checks(data, g):
    draw = data.draw
    ids = [e.id for e in g.edges]
    s = subset(draw, ids)
    assert_as_if_public(parse(serialize(g)))
    assert_as_if_public(switch(g, [draw(st.sampled_from((1, -1))) for _ in range(g.n)]))
    assert_as_if_public(switch_set(g, subset(draw, range(g.n))))
    assert_as_if_public(delete_edges(g, s))
    assert_as_if_public(contract_set(g, s)[0])
    for eid in ids:
        assert_as_if_public(contract_edge(g, eid)[0])
    assert_as_if_public(delete_vertices(g, subset(draw, range(g.n))))


@PROPERTY
@given(st.data(), edge_ids, st.sampled_from(("edge", "half", "loose")))
def test_parse_rejects_an_id_with_a_comma_as_edge_does(data, eid, directive):
    at = data.draw(st.integers(0, len(eid)))
    eid = eid[:at] + "," + eid[at:]
    line = {"edge": f"edge {eid} 1 2 -", "half": f"half {eid} 2", "loose": f"loose {eid}"}
    message = f"bad edge id {eid!r}: need a nonempty string without whitespace, '#', ','"
    with pytest.raises(SgError) as parsed:
        parse(f"sg 1\nn 2\n{line[directive]}\n")
    with pytest.raises(SgError) as built:
        half(eid, 0)
    assert str(parsed.value) == str(built.value) == message


@PROPERTY
@given(st.data(), graphs(n_max=5, m_max=8))
def test_switching_invariants(data, g):
    draw = data.draw
    s = subset(draw, [e.id for e in g.edges])
    h = switch_set(g, subset(draw, range(g.n)))
    assert balance_partition(h, s) == balance_partition(g, s)
    assert rank(h, s) == rank(g, s)
    assert closure(h, s) == closure(g, s)
    assert classify_balancing_edges(h) == classify_balancing_edges(g)
    assert chromatic_poly_delcon(h) == chromatic_poly_delcon(g)
    assert switching_equivalent(contract_set(g, s)[0], contract_set(h, s)[0]) is not None
