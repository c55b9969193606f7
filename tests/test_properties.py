"""Property tests: the independent routes to one quantity agree on generated
graphs of all four edge kinds, and the text format round-trips.

Runs are derandomized, so every run tries the same examples."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signedgraph import (
    SgError,
    SignedGraph,
    characteristic_polynomial,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    chromatic_via_expansion,
    count_proper,
    count_regions_by_sign_vectors,
    enumerate_acyclic,
    half,
    link,
    loop,
    loose,
    parse,
    region_count,
    serialize,
)

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
