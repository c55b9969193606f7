import pytest

from signedgraph import (
    BidirectedGraph,
    SgError,
    SignedGraph,
    arrangement,
    characteristic_polynomial,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    count_regions_by_sign_vectors,
    enumerate_acyclic,
    half,
    is_acyclic,
    link,
    loop,
    loose,
    orient,
    region_count,
    region_witness_point,
)
from conftest import random_graph, seeded


def test_orient_rules(sigma4):
    b = orient(sigma4)
    # link a = +v1v2: tau = +1 at the lower end, -sigma at the upper
    assert b.tau[("a", 0)] == 1 and b.tau[("a", 1)] == -1
    # link b = -v2v3: tau = +1, +1
    assert b.tau[("b", 0)] == 1 and b.tau[("b", 1)] == 1
    assert b.tau[("h", 0)] == 1
    for e in sigma4.edges:
        if e.is_ordinary:
            assert -b.tau[(e.id, 0)] * b.tau[(e.id, 1)] == e.sign


def test_orient_loops():
    g = SignedGraph(1, [loop("p", 0, 1), loop("n", 0, -1)])
    b = orient(g)
    assert (b.tau[("n", 0)], b.tau[("n", 1)]) == (1, 1)
    assert {b.tau[("p", 0)], b.tau[("p", 1)]} == {1, -1}
    assert b.eta(0, "n") == 2
    assert b.eta(0, "p") == 0


def test_tau_sign_consistency_enforced():
    g = SignedGraph(2, [link("a", 0, 1, 1)])
    with pytest.raises(SgError):
        BidirectedGraph(g, {("a", 0): 1, ("a", 1): 1})  # implies sign -1
    with pytest.raises(SgError):
        BidirectedGraph(g, {("a", 0): 1})  # missing an end


def test_acyclic_examples():
    # a single positive link is always acyclic (no circuits at all)
    g = SignedGraph(2, [link("a", 0, 1, 1)])
    assert is_acyclic(orient(g))
    assert enumerate_acyclic(g) == 2
    # a positive digon has one positive circle; 2 of the 4 orientations are
    # cyclic (those giving a consistent direction around the circle)
    g2 = SignedGraph(2, [link("a", 0, 1, 1), link("b", 0, 1, 1)])
    assert enumerate_acyclic(g2) == 2
    # a loose edge kills every orientation
    g3 = SignedGraph(1, [loose("x")])
    assert enumerate_acyclic(g3) == 0
    assert not is_acyclic(orient(g3))


def test_acyclic_negative_loop():
    # the negative loop is itself a circuit: eta = +-2 at its vertex, which
    # is always a source or sink, so both orientations are acyclic
    g = SignedGraph(1, [loop("l", 0, -1)])
    assert enumerate_acyclic(g) == 2


def test_arrangement_equations(sigma4):
    hps = arrangement(sigma4)
    eqs = [h.equation() for h in hps]
    assert eqs[0] == "x2 = x1"  # a = +v1v2
    assert eqs[1] == "x3 = -x2"  # b = -v2v3
    assert eqs[6] == "x3 = 0"  # half edge at v3
    g = SignedGraph(1, [loop("p", 0, 1), loose("x")])
    assert [h.kind for h in arrangement(g)] == ["degenerate", "degenerate"]


def test_characteristic_polynomial_sigma4(sigma4):
    p = characteristic_polynomial(sigma4)
    assert list(reversed(p.coeffs)) == [1, -7, 19, -23, 10]


def test_region_count_sigma4(sigma4):
    rep = region_count(sigma4, oracle=True, count_acyclic=True)
    assert rep.region_count == 60
    assert rep.sign_vector_regions == 60
    assert rep.acyclic_count == 60


def test_region_formula_matches_oracle_random():
    rng = seeded(61)
    done = 0
    while done < 25:
        g = random_graph(rng, n_max=4, m_max=6)
        hps = arrangement(g)
        if any(h.kind == "degenerate" for h in hps):
            continue
        rep = region_count(g, oracle=True, count_acyclic=True)
        assert rep.region_count == rep.sign_vector_regions == rep.acyclic_count
        done += 1


def test_degenerate_gives_zero_regions():
    g = SignedGraph(2, [link("a", 0, 1, 1), loop("p", 1, 1)])
    rep = region_count(g, count_acyclic=True)
    assert rep.region_count == 0
    assert rep.acyclic_count == 0


def test_full_coordinate_arrangement_counts():
    # all half edges and all +- links on n vertices: 2^n n! regions
    for n in (1, 2, 3):
        edges = [half(f"h{i}", i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                edges.append(link(f"p{i}{j}", i, j, 1))
                edges.append(link(f"m{i}{j}", i, j, -1))
        g = SignedGraph(n, edges)
        assert region_count(g).region_count == 2**n * __import__("math").factorial(n)


def test_witness_points(sigma4):
    found = 0
    from itertools import product

    base = orient(sigma4)
    orientable = [e for e in sigma4.edges]
    for flips in product((1, -1), repeat=len(orientable)):
        tau = dict(base.tau)
        for e, flip in zip(orientable, flips):
            if flip == -1:
                for slot in range(len(e.ends)):
                    tau[(e.id, slot)] = -tau[(e.id, slot)]
        b = BidirectedGraph(sigma4, tau)
        w = region_witness_point(sigma4, b)
        if w is not None:
            found += 1
            # the witness strictly satisfies every edge inequality
            for e in sigma4.edges:
                total = sum(
                    b.tau[(e.id, slot)] * w[v] for slot, v in enumerate(e.ends)
                )
                assert total > 0
            assert is_acyclic(b)
    # nonempty regions correspond exactly to acyclic orientations
    assert found == 60


def test_caps():
    big = SignedGraph(8, [link(f"e{i}", i, (i + 1) % 8, 1) for i in range(8)])
    with pytest.raises(SgError):
        count_regions_by_sign_vectors(big)
    many = SignedGraph(
        4, [link(f"e{i}", i % 4, (i + 1) % 4, 1 if i % 2 else -1) for i in range(22)]
    )
    with pytest.raises(SgError):
        chromatic_poly_subset(many)
    assert characteristic_polynomial(many) == chromatic_poly_delcon(many)
