"""Property tests: the independent routes to one quantity agree on generated
graphs of all four edge kinds, the text format round-trips, a mutated
fixture file parses to SgError or to a graph that round-trips, graphs built
without checks (parse, switchings, minors) are the graphs the public
constructors build, switching changes no switching invariant, relabelling,
renaming and switching together change no invariant of switching
isomorphism, switching equivalence is the search over all switchings,
contraction takes rank(S) off every rank, every reading of the edge vector
and of the signed circles agrees with its definition, a spanning forest
has n - c links and each fundamental circle holds its edge, closure obeys the
closure axioms, each walk over edge subsets on the undoable union-find
equals its per-subset recomputation, and the spectrum prints each integer
eigenvalue exactly, as often as the nullity at it says, and keeps the trace
identities (and agrees with LAPACK where numpy is installed).

Runs are derandomized, so every run tries the same examples."""

from itertools import combinations, product
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from signedgraph import (
    BidirectedGraph,
    Edge,
    EdgeKind,
    IntPolynomial,
    SgError,
    SignedGraph,
    adjacency_matrix,
    arrangement,
    balance_partition,
    characteristic_polynomial,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    chromatic_via_expansion,
    classify_balancing_edges,
    closed_sets,
    closure,
    components,
    contract_edge,
    contract_set,
    count_proper,
    count_regions_by_sign_vectors,
    degree_matrix,
    delete_edges,
    edge_set_sign,
    edge_vector,
    enumerate_acyclic,
    enumerate_circles,
    enumerate_frame_circuits,
    fundamental_system,
    half,
    incidence_matrix,
    is_acyclic,
    is_balanced,
    is_independent,
    laplacian,
    link,
    loop,
    loose,
    matrix_tree,
    min_balancing_set,
    min_balancing_set_exhaustive,
    orient,
    parse,
    rank,
    rational_nullity,
    region_count,
    region_witness_point,
    serialize,
    spanning_forest,
    spectrum,
    switch,
    switch_set,
    switching_equivalent,
    switching_isomorphic,
)
from signedgraph.coloring import _constraints
from signedgraph.core import _UndoableUnionFind, _frame_edge, _potential, _signed_circles
from conftest import FIXTURES, balance_oracle, delete_vertices, scramble

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


@st.composite
def pendant_trees(draw):
    """A small graph with a tree hung on it: each new vertex gets one link to
    an earlier vertex, and some get a half edge, a negative loop or an
    opposite parallel link as well, which makes them not pendant for chi.
    The vertices are then renumbered at random."""
    base = draw(graphs(n_max=4, m_max=4))
    edges = list(base.edges)
    extra = draw(st.integers(1, 4))
    for i in range(base.n, base.n + extra):
        u = draw(st.integers(0, i - 1))
        sign = draw(st.sampled_from((1, -1)))
        edges.append(link(f"t{i}", u, i, sign))
        also = draw(st.sampled_from(("none", "none", "half", "negative loop", "opposite link")))
        if also == "half":
            edges.append(half(f"x{i}", i))
        elif also == "negative loop":
            edges.append(loop(f"x{i}", i, -1))
        elif also == "opposite link":
            edges.append(link(f"x{i}", u, i, -sign))
    n = base.n + extra
    perm = draw(st.permutations(range(n)))
    return SignedGraph(n, [Edge(e.id, e.kind, tuple(perm[v] for v in e.ends), e.sign) for e in edges])


@PROPERTY
@given(pendant_trees())
def test_pendant_rule_agrees_with_the_subset_expansion(g):
    chi = chromatic_poly_subset(g)
    assert chromatic_poly_delcon(g) == chi == chromatic_via_expansion(g)
    assert chromatic_poly_delcon(g, zero_free=True) == chromatic_poly_subset(g, zero_free=True)


@PROPERTY
@given(st.data(), graphs(n_max=6, m_max=10))
def test_balance_is_the_definition(data, g):
    s = subset(data.draw, [e.id for e in g.edges])
    assert is_balanced(g) == balance_oracle(g)
    assert is_balanced(g, s) == balance_oracle(g, s)


@PROPERTY
@given(graphs(n_max=5, m_max=7))
def test_region_formula_equals_sign_vectors_and_acyclic_count(g):
    formula = region_count(g).region_count
    assert formula == count_regions_by_sign_vectors(g) == enumerate_acyclic(g)


@st.composite
def disjoint_unions(draw, parts_max=3, n_max=4, m_max=4):
    """Up to parts_max graphs of `graphs` side by side, with the ids e0, e1,
    ... dealt out across the parts in a drawn order, so that a tie inside
    one component meets the other components in the id order."""
    parts = draw(st.lists(graphs(n_max=n_max, m_max=m_max), min_size=1, max_size=parts_max))
    names = iter(draw(st.permutations(range(sum(len(p.edges) for p in parts)))))
    edges, shift = [], 0
    for part in parts:
        for e in part.edges:
            edges.append(Edge(f"e{next(names)}", e.kind, tuple(v + shift for v in e.ends), e.sign))
        shift += part.n
    return SignedGraph(shift, edges)


@PROPERTY
@given(disjoint_unions())
def test_min_balancing_set_is_the_first_balancing_set_by_size_and_ids(g):
    assert min_balancing_set(g) == min_balancing_set_exhaustive(g)


def orientations(g):
    """Every bidirection of g: each link, loop and half edge in each of its
    two directions."""
    base = orient(g).tau
    ends = [[(e.id, slot) for slot in range(len(e.ends))] for e in g.edges if e.ends]
    for flips in product((1, -1), repeat=len(ends)):
        tau = dict(base)
        for keys, flip in zip(ends, flips):
            for key in keys:
                tau[key] *= flip
        yield BidirectedGraph(g, tau)


@PROPERTY
@given(graphs(n_max=4, m_max=5))
def test_an_orientation_is_acyclic_exactly_when_its_region_is_nonempty(g):
    """Every region of a subarrangement of B_n holds a signed-permutation
    point, so region_witness_point decides whether R(tau) is empty."""
    acyclic = 0
    for b in orientations(g):
        ok = is_acyclic(b)
        assert ok == (region_witness_point(g, b) is not None)
        acyclic += ok
    assert acyclic == enumerate_acyclic(g)


@PROPERTY
@given(st.data(), graphs(n_max=6, m_max=10))
def test_closure_is_extensive_idempotent_and_monotone(data, g):
    t = subset(data.draw, [e.id for e in g.edges])
    s = frozenset(subset(data.draw, t))
    closed = closure(g, s)
    assert s <= closed
    assert closure(g, closed) == closed
    assert closed <= closure(g, t)


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


FIXTURE_TEXTS = [p.read_bytes() for p in sorted(Path(FIXTURES).glob("*.sg"))]
# bytes the format gives meaning to, mixed with other ASCII; the few bytes
# over 0x7f mostly make the text invalid UTF-8
mutant_bytes = st.one_of(st.sampled_from(b"0123456789 \t\r\n#+-,nedgehalfloos\x1c\xc3\xa9"), st.integers(0, 127))


@st.composite
def mutated_fixtures(draw):
    """A fixture file with a few bytes replaced, inserted or deleted."""
    text = bytearray(draw(st.sampled_from(FIXTURE_TEXTS)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(range(len(text) + 1)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(mutant_bytes)
        if op == "insert" or at == len(text):
            text.insert(at, byte)
        elif op == "replace":
            text[at] = byte
        else:
            del text[at]
    return bytes(text)


@settings(PROPERTY, max_examples=500)
@given(mutated_fixtures())
def test_parse_of_a_mutated_fixture_raises_sg_error_or_round_trips(text):
    try:
        g = parse(text)
    except SgError:
        return
    assert parse(serialize(g)) == g
    assert_as_if_public(g)


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


@PROPERTY
@given(graphs(n_max=6, m_max=10), st.randoms(use_true_random=False))
def test_relabelling_renaming_and_switching_change_no_invariant(g, rng):
    h, rename = scramble(g, rng)
    assert chromatic_poly_delcon(h) == chromatic_poly_delcon(g)
    assert chromatic_poly_delcon(h, zero_free=True) == chromatic_poly_delcon(g, zero_free=True)
    assert region_count(h) == region_count(g)  # the characteristic polynomial and the region count
    ph, pg = balance_partition(h), balance_partition(g)
    assert (ph.b, len(ph.v0), rank(h)) == (pg.b, len(pg.v0), rank(g))
    kinds = [sorted(fc.kind for fc in enumerate_frame_circuits(x)) for x in (h, g)]
    assert kinds[0] == kinds[1]
    assert classify_balancing_edges(h) == {rename[eid]: c for eid, c in classify_balancing_edges(g).items()}
    assert len(min_balancing_set(h)) == len(min_balancing_set(g))
    assert matrix_tree(h) == matrix_tree(g)
    assert switching_isomorphic(g, h) is not None


def as_unordered(g):
    """g up to edge order and the order of a link's ends."""
    return g.n, {e.id: (e.kind, frozenset(e.ends), e.sign) for e in g.edges}


@PROPERTY
@given(st.data(), graphs(n_max=5, m_max=8))
def test_switching_equivalent_is_the_search_over_all_switchings(data, g):
    """h is g switched, with its edges reordered and some links' ends swapped,
    and maybe one sign flipped afterwards."""
    draw = data.draw
    edges = list(switch_set(g, subset(draw, range(g.n))).edges)
    flip = draw(st.sampled_from([None] + [e.id for e in edges if e.is_ordinary]))
    edges = [Edge(e.id, e.kind, e.ends[::-1] if draw(st.booleans()) else e.ends,
                  -e.sign if e.id == flip else e.sign) for e in draw(st.permutations(edges))]
    h = SignedGraph(g.n, edges)
    target = as_unordered(h)
    found = any(as_unordered(switch(g, zeta)) == target for zeta in product((1, -1), repeat=g.n))
    zeta = switching_equivalent(g, h)
    assert (zeta is not None) == found
    if found:
        assert as_unordered(switch(g, zeta)) == target


@PROPERTY
@given(st.data(), graphs(n_max=5, m_max=10))
def test_contracting_s_takes_rank_s_off_every_rank(data, g):
    """rank_{G/S}(T) = rank(T + S) - rank(S) for T outside S."""
    draw = data.draw
    s = frozenset(subset(draw, [e.id for e in g.edges]))
    t = frozenset(subset(draw, [e.id for e in g.edges if e.id not in s]))
    contracted, _ = contract_set(g, s)
    assert rank(contracted, t) == rank(g, t | s) - rank(g, s)


@PROPERTY
@given(st.data(), graphs(n_max=6, m_max=10))
def test_rank_is_n_less_the_balanced_components(data, g):
    s = subset(data.draw, [e.id for e in g.edges])
    assert rank(g, s) == g.n - balance_partition(g, s).b
    assert rank(g) == g.n - balance_partition(g).b


@PROPERTY
@given(st.data(), graphs(n_max=6, m_max=10))
def test_switching_a_vertex_set_twice_gives_the_graph_back(data, g):
    x = subset(data.draw, range(g.n))
    assert switch_set(switch_set(g, x), x) == g


@PROPERTY
@given(graphs(n_max=5, m_max=9))
def test_signed_circles_carry_their_sign_and_vertex_set(g):
    circles = list(_signed_circles(g.n, g.edges))
    assert [c for c, _, _ in circles] == enumerate_circles(g)
    for c, verts, sign in circles:
        assert sign == edge_set_sign(g, c)
        assert verts == {v for eid in c for v in g.edge(eid).ends}


@PROPERTY
@given(graphs(n_max=6, m_max=10))
def test_a_spanning_forest_spans_and_its_fundamental_circles_contain_their_edges(g):
    links = {e.id for e in g.edges if e.kind is EdgeKind.LINK}
    t = spanning_forest(g)
    assert t <= links and len(t) == g.n - len(components(g, links))
    system = fundamental_system(g, t)
    assert system.keys() == {e.id for e in g.edges if e.is_ordinary} - t
    for eid, circle in system.items():
        assert eid in circle and circle in enumerate_circles(g, t | {eid})


def circle_containment_counts(g):
    """The count matrix_tree replaced: for each independent n-edge set, the
    number of circles inside it."""
    circles = enumerate_circles(g)
    counts = [0] * (g.n + 1)
    for combo in combinations(sorted(g.edge_ids), g.n):
        s = frozenset(combo)
        if is_independent(g, s):
            counts[sum(1 for c in circles if c <= s)] += 1
    return tuple(counts)


@PROPERTY
@given(graphs(n_max=5, m_max=9))
def test_matrix_tree_counts_the_circles_of_independent_sets(g):
    rep = matrix_tree(g)
    assert rep.circle_counts == circle_containment_counts(g)
    assert rep.consistent


@PROPERTY
@given(graphs(n_max=6, m_max=10))
def test_laplacian_is_d_minus_a_and_h_h_transpose(g):
    d, a, h = degree_matrix(g), adjacency_matrix(g), incidence_matrix(g)
    rows = range(g.n)
    assert laplacian(g) == [[d[i][j] - a[i][j] for j in rows] for i in rows]
    assert laplacian(g) == [[sum(x * y for x, y in zip(h[i], h[j])) for j in rows] for i in rows]


def on_hyperplane(h, p):
    if h.kind == "difference":
        return p[h.j] == h.sign * p[h.i]
    return h.kind == "degenerate" or p[h.i] == 0


def violates(constraints, p):
    """Whether the coloring p breaks a constraint set of `_constraints`."""
    return constraints is None or any(
        p[v] == s * p[u] if s else p[v] == 0 for u, v, s in constraints
    )


@PROPERTY
@given(graphs(), st.lists(st.tuples(*[st.integers(-2, 2)] * 5), min_size=1, max_size=6))
def test_hyperplane_constraint_and_tau_agree_with_the_edge_vector(g, points):
    """Each edge's hyperplane is the zero set of its edge vector x, its
    coloring constraint is p . x != 0, and the net incidence of its ends
    under orient is x."""
    b = orient(g)
    for e, h in zip(g.edges, arrangement(g)):
        x = edge_vector(g, e.id)
        assert [b.eta(v, e.id) for v in range(g.n)] == x
        cons = _constraints(SignedGraph(g.n, [e]), zero_free=False)
        for p in points:
            on = sum(c * y for c, y in zip(x, p)) == 0
            assert on_hyperplane(h, p) == on
            assert violates(cons, p) == on


def all_subsets(g):
    """Every edge set of g, by size and then by sorted id tuple."""
    ids = sorted(g.edge_ids)
    return (frozenset(c) for r in range(len(ids) + 1) for c in combinations(ids, r))


@PROPERTY
@given(graphs(n_max=6, m_max=10))
def test_subset_expansion_walk_is_the_per_subset_sum(g):
    chi, chi_star = [0] * (g.n + 1), [0] * (g.n + 1)
    for s in all_subsets(g):
        part = balance_partition(g, s)
        chi[part.b] += (-1) ** len(s)
        if not part.v0:
            chi_star[part.b] += (-1) ** len(s)
    assert chromatic_poly_subset(g) == IntPolynomial(chi)
    assert chromatic_poly_subset(g, zero_free=True) == IntPolynomial(chi_star)


@PROPERTY
@given(graphs(n_max=6, m_max=10))
def test_closed_set_walk_is_the_per_subset_closure_test(g):
    assert closed_sets(g).elements == tuple(s for s in all_subsets(g) if closure(g, s) == s)


@PROPERTY
@given(graphs(n_max=6, m_max=10))
def test_matrix_tree_walk_is_the_per_set_count(g):
    halves = {e.id for e in g.edges if e.kind is EdgeKind.HALF}
    counts = [0] * (g.n + 1)
    for combo in combinations(sorted(g.edge_ids), g.n):
        _, root, unbalanced = _potential(g, combo)
        if all(r in unbalanced for r in root):
            counts[len(unbalanced) - len(halves.intersection(combo))] += 1
    assert matrix_tree(g).circle_counts == tuple(counts)


def union_find_state(uf):
    return list(uf.parent), list(uf.parity), list(uf.size), list(uf.unbal), uf.comps, uf.unbalanced


@PROPERTY
@given(st.data(), graphs(n_max=6, m_max=10))
def test_union_find_tracks_b_and_rank_and_undo_restores_its_state(data, g):
    uf = _UndoableUnionFind(g.n)
    states, added = [union_find_state(uf)], []
    for grow in data.draw(st.lists(st.booleans(), max_size=30)):
        rest = [e for e in g.edges if e.id not in added]
        if grow and rest:
            e = data.draw(st.sampled_from(rest))
            b = uf.comps - uf.unbalanced
            grew = uf.add(_frame_edge(e))
            added.append(e.id)
            states.append(union_find_state(uf))
            assert uf.comps - uf.unbalanced == balance_partition(g, added).b
            assert grew == (uf.comps - uf.unbalanced < b)
        elif added:
            uf.undo()
            added.pop()
            states.pop()
            assert union_find_state(uf) == states[-1]
    while added:
        uf.undo()
        added.pop()
    assert union_find_state(uf) == states[0]


def printed(values):
    """Eigenvalues as sgtool prints them, to 12 significant digits."""
    return [f"{x:.12g}" for x in values]


@PROPERTY
@given(graphs(n_max=9, m_max=16), st.sampled_from((adjacency_matrix, laplacian)))
def test_spectrum_prints_integer_eigenvalues_exactly_and_keeps_the_traces(g, matrix):
    a = matrix(g)
    ev = spectrum(a)
    text = printed(ev)
    assert len(ev) == g.n and ev == sorted(ev) and "-0" not in text
    # every eigenvalue lies within the largest absolute row sum (Gershgorin)
    bound = max((sum(map(abs, row)) for row in a), default=0)
    for k in range(-bound, bound + 1):
        shifted = [[x - k if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
        assert text.count(str(k)) == rational_nullity(shifted), k
    frobenius = sum(x * x for row in a for x in row)  # tr A^2, as A is symmetric
    assert abs(sum(ev) - sum(a[i][i] for i in range(g.n))) <= 1e-9 * (1 + frobenius)
    assert abs(sum(x * x for x in ev) - frobenius) <= 1e-9 * (1 + frobenius)


def test_spectrum_agrees_with_lapack():
    np = pytest.importorskip("numpy")

    @PROPERTY
    @given(graphs(n_max=9, m_max=16), st.sampled_from((adjacency_matrix, laplacian)))
    def agrees(g, matrix):
        a = matrix(g)
        lapack = np.linalg.eigvalsh(np.array(a, dtype=float)) if g.n else []
        assert all(abs(x - y) <= 1e-9 for x, y in zip(spectrum(a), lapack))

    agrees()
