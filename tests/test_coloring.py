import sys
import time
from itertools import combinations, product
from math import comb

import pytest

from signedgraph import (
    EdgeKind,
    IntPolynomial,
    SgError,
    SignedGraph,
    chromatic_numbers,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    chromatic_via_expansion,
    catalog,
    characteristic_polynomial,
    color_pair_capacity,
    contract_edge,
    count_proper,
    delete_edges,
    half,
    is_proper,
    link,
    loop,
    loose,
    max_used_pairs_bruteforce,
    plus_minus_kn,
    switch_set,
    unsigned_chromatic,
)
from signedgraph import coloring
from signedgraph.coloring import max_matching_size
from signedgraph.core import CAPS
from conftest import seeded

P3 = (3, [(0, 1), (1, 2)])
C3 = (3, [(0, 1), (1, 2), (0, 2)])
C4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K4_MINUS_E = (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
SMALL_BASES = [P3, C3, C4, K4_MINUS_E]


def all_signatures(n, edge_list):
    for signs in product((1, -1), repeat=len(edge_list)):
        yield SignedGraph(
            n,
            [
                link(f"e{i}", u, v, s)
                for i, ((u, v), s) in enumerate(zip(edge_list, signs))
            ],
        )


def test_three_algorithms_agree_on_small_graphs():
    for n, edge_list in SMALL_BASES:
        for g in all_signatures(n, edge_list):
            a = chromatic_poly_delcon(g)
            b = chromatic_poly_subset(g)
            c = chromatic_via_expansion(g)
            assert a == b == c
            assert chromatic_poly_delcon(g, zero_free=True) == chromatic_poly_subset(
                g, zero_free=True
            )


def test_polynomials_count_colorings():
    for n, edge_list in SMALL_BASES[:2]:
        for g in all_signatures(n, edge_list):
            chi = chromatic_poly_delcon(g)
            star = chromatic_poly_delcon(g, zero_free=True)
            for k in (0, 1, 2):
                assert chi(2 * k + 1) == count_proper(g, k)
                assert star(2 * k) == count_proper(g, k, zero_free=True)


def test_with_half_edges_and_loops(sigma4):
    chi = chromatic_poly_delcon(sigma4)
    assert chi == chromatic_poly_subset(sigma4) == chromatic_via_expansion(sigma4)
    for k in (0, 1):
        assert chi(2 * k + 1) == count_proper(sigma4, k)
    # positive loop forces equal color: identically zero
    g = SignedGraph(1, [loop("p", 0, 1)])
    assert chromatic_poly_delcon(g).is_zero()
    # negative loop only forbids 0, like a half edge
    g2 = SignedGraph(1, [loop("m", 0, -1)])
    g3 = SignedGraph(1, [half("h", 0)])
    assert chromatic_poly_delcon(g2) == chromatic_poly_delcon(g3)
    assert chromatic_poly_delcon(g3).coeffs == (-1, 1)


def test_chromatic_equals_characteristic(sigma4):
    for n, edge_list in SMALL_BASES:
        for g in all_signatures(n, edge_list):
            assert chromatic_poly_delcon(g) == characteristic_polynomial(g)
    assert chromatic_poly_delcon(sigma4) == characteristic_polynomial(sigma4)


def test_switching_invariance():
    rng = seeded(71)
    for n, edge_list in SMALL_BASES:
        for g in list(all_signatures(n, edge_list))[::5]:
            s = [v for v in range(n) if rng.random() < 0.5]
            g2 = switch_set(g, s)
            assert chromatic_poly_delcon(g) == chromatic_poly_delcon(g2)
            assert chromatic_poly_delcon(g, True) == chromatic_poly_delcon(g2, True)


def test_multiplicative_over_components():
    g1 = SignedGraph(3, [link("a", 0, 1, -1), link("b", 1, 2, 1), link("c", 0, 2, 1)])
    g2 = SignedGraph(2, [link("d", 0, 1, -1)])
    joint = SignedGraph(
        5,
        list(g1.edges) + [link("d", 3, 4, -1)],
    )
    assert chromatic_poly_delcon(joint) == chromatic_poly_delcon(
        g1
    ) * chromatic_poly_delcon(g2)


def test_chromatic_numbers(sigma4):
    assert chromatic_numbers(sigma4) == (1, 2)
    n, e = C3
    g = SignedGraph(n, [link(f"e{i}", u, v, 1) for i, (u, v) in enumerate(e)])
    assert chromatic_numbers(g) == (1, 2)  # 3 colors with zero, or {+1,-1,+2,-2}
    assert chromatic_numbers(SignedGraph(1, [loop("p", 0, 1)])) == (None, None)
    # complete signed expansion of K_n needs n color pairs zero-free: adjacent
    # vertices must differ in magnitude
    for nn in (2, 3, 4):
        _, star = chromatic_numbers(plus_minus_kn(nn))
        assert star == nn


def test_catalog_families_match_general_algorithms():
    cases = [
        ("all_positive", C3),
        ("all_positive", C4),
        ("all_positive_full", C3),
        ("all_negative", C3),
        ("all_negative", P3),
        ("all_negative", C4),
        ("signed_expansion", P3),
        ("signed_expansion", C3),
        ("signed_expansion_full", P3),
        ("signed_expansion_full", C3),
    ]
    for family, (n, edge_list) in cases:
        g, chi, star = catalog(family, n=n, edge_list=edge_list)
        if chi is not None:
            assert chi == chromatic_poly_delcon(g), family
        if star is not None:
            assert star == chromatic_poly_delcon(g, zero_free=True), family


def test_catalog_pm_kn():
    for n in (1, 2, 3, 4):
        g, chi, star = catalog("pm_kn", n=n)
        assert chi == chromatic_poly_delcon(g)
        assert star == chromatic_poly_delcon(g, zero_free=True)
        gf, chif, starf = catalog("pm_kn_full", n=n)
        assert chif == chromatic_poly_delcon(gf)
        assert starf == chromatic_poly_delcon(gf, zero_free=True)
        # closed forms: lambda(lambda-2)...(lambda-2n+2), shifted for chi
        assert star(2 * n) != 0 and star(2 * n - 2) == 0


def test_catalog_full_of_signed_graph(sigma4):
    g, chi, star = catalog("full", base=sigma4)
    assert chi == chromatic_poly_delcon(g)
    assert star == chromatic_poly_delcon(sigma4, zero_free=True)
    g2, chi2, _ = catalog("full_loops", base=sigma4)
    assert chi2 == chromatic_poly_delcon(g2)


def test_catalog_rejects_bad_input():
    with pytest.raises(SgError):
        catalog("all_positive", n=2, edge_list=[(0, 0)])
    with pytest.raises(SgError):
        catalog("nonsense", n=2, edge_list=[(0, 1)])
    with pytest.raises(SgError):
        catalog("full")


def test_unsigned_chromatic():
    assert unsigned_chromatic(3, [(0, 1), (1, 2), (0, 2)]).coeffs == (0, 2, -3, 1)
    assert unsigned_chromatic(2, [(0, 0)]).is_zero()
    assert unsigned_chromatic(3, []).coeffs == (0, 0, 0, 1)


def test_color_pair_capacity_oracle():
    cases = [
        (3, [(0, 1), (1, 2), (0, 2)]),  # K3: complement empty, capacity 0
        (4, [(0, 1), (1, 2), (2, 3)]),  # P4: capacity 2
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # C4: capacity 2
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # star: capacity 2
        (4, []),  # empty: capacity 2
    ]
    for n, edge_list in cases:
        cap = color_pair_capacity(n, edge_list)
        k = n  # plenty of pairs available
        assert cap == max_used_pairs_bruteforce(n, edge_list, k)
        # brute force is monotone nondecreasing in k and bounded by k
        prev = 0
        for kk in range(1, n):
            cur = max_used_pairs_bruteforce(n, edge_list, kk)
            assert prev <= cur <= kk
            prev = cur


def test_max_matching_size_is_the_largest_matching_edge_set():
    rng = seeded(16)
    for _ in range(150):
        n = rng.randint(0, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edge_list = rng.sample(pairs, min(len(pairs), rng.randint(0, 10)))
        matchings = (
            r for r in range(len(edge_list) + 1) for s in combinations(edge_list, r)
            if len({v for e in s for v in e}) == 2 * r
        )
        assert max_matching_size(n, edge_list) == max(matchings)


def test_color_pair_capacity_of_long_paths_is_quick():
    for n in (8, 9, 20):
        start = time.perf_counter()
        assert color_pair_capacity(n, [(i, i + 1) for i in range(n - 1)]) == n // 2
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: color_pair_capacity(-1, []), "n must be an int >= 0, got -1"),
    (lambda: is_proper(SignedGraph(2, []), (0,)), "gamma has 1 colors for 2 vertices"),
    (lambda: count_proper(SignedGraph(2, []), "a"), "k must be an int >= 0, got 'a'"),
    (lambda: count_proper(SignedGraph(2, []), -1, zero_free=True), "k must be an int >= 0, got -1"),
    (lambda: max_used_pairs_bruteforce(2, [], 1.0), "k must be an int >= 0, got 1.0"),
], ids=["color_pair_capacity n", "is_proper gamma", "count_proper k str", "count_proper k negative",
        "max_used_pairs_bruteforce k float"])
def test_a_bad_argument_raises_sg_error_naming_it(call, message):
    with pytest.raises(SgError) as err:
        call()
    assert str(err.value) == message


def test_a_huge_k_reaches_the_coloration_cap_before_listing_colors():
    for call in (lambda: count_proper(SignedGraph(2, []), 10**11),
                 lambda: count_proper(SignedGraph(2, []), 10**11, zero_free=True),
                 lambda: max_used_pairs_bruteforce(2, [], 10**11)):
        start = time.perf_counter()
        with pytest.raises(SgError, match=r"^coloration cap exceeded \(colorations \d+ > 2000000\)$"):
            call()
        assert time.perf_counter() - start < 0.1
    assert count_proper(SignedGraph(0, []), 10**11) == 1  # the one empty coloration


def kernel_graph(rng):
    """Seeded random graph with n <= 6 that mixes in every case the
    deletion-contraction kernel collapses or short-cuts: parallel links of
    equal and of opposite sign, repeated half edges and negative loops at one
    vertex, positive loops and loose edges."""
    n = rng.randint(1, 6)
    edges = []
    for i in range(rng.randint(0, 9)):
        eid = f"e{i}"
        links = [e for e in edges if e.kind is EdgeKind.LINK]
        roll = rng.random()
        if roll < 0.15 and links:
            twin = rng.choice(links)
            edges.append(link(eid, *twin.ends[::-1], rng.choice([twin.sign, -twin.sign])))
        elif roll < 0.60 and n >= 2:
            u, v = rng.sample(range(n), 2)
            edges.append(link(eid, u, v, rng.choice([1, -1])))
        elif roll < 0.78:
            edges.append(half(eid, rng.randrange(n)))
        elif roll < 0.92:
            edges.append(loop(eid, rng.randrange(n), -1))
        elif roll < 0.96:
            edges.append(loop(eid, rng.randrange(n), 1))
        else:
            edges.append(loose(eid))
    return SignedGraph(n, edges)


def kernel_cases(g):
    """The collapse and short-cut cases present in g."""
    cases = set()
    links = {}
    for e in g.edges:
        if e.kind is EdgeKind.LINK:
            links.setdefault(tuple(sorted(e.ends)), []).append(e.sign)
    for signs in links.values():
        if len(signs) > len(set(signs)):
            cases.add("parallel equal")
        if len(set(signs)) == 2:
            cases.add("parallel opposite")
    for v in range(g.n):
        kinds = [
            e.kind for e in g.edges
            if e.ends == (v,) or (e.kind is EdgeKind.LOOP and e.ends[0] == v and e.sign == -1)
        ]
        if kinds.count(EdgeKind.HALF) >= 2:
            cases.add("two half edges")
        if EdgeKind.HALF in kinds and EdgeKind.LOOP in kinds:
            cases.add("half edge and negative loop")
    if any(e.kind is EdgeKind.LOOP and e.sign == 1 for e in g.edges):
        cases.add("positive loop")
    if any(e.kind is EdgeKind.LOOSE for e in g.edges):
        cases.add("loose edge")
    return cases


def test_delcon_agrees_with_every_route_on_random_graphs():
    rng = seeded(404)
    seen = set()
    for _ in range(80):
        g = kernel_graph(rng)
        seen |= kernel_cases(g)
        chi = chromatic_poly_delcon(g)
        star = chromatic_poly_delcon(g, zero_free=True)
        assert chi == chromatic_poly_subset(g) == chromatic_via_expansion(g)
        assert star == chromatic_poly_subset(g, zero_free=True)
        for k in (0, 1, 2):
            assert chi(2 * k + 1) == count_proper(g, k)
            assert star(2 * k) == count_proper(g, k, zero_free=True)
    assert seen == {
        "parallel equal", "parallel opposite", "two half edges",
        "half edge and negative loop", "positive loop", "loose edge",
    }


def test_deletion_contraction_identity_with_contract_edge():
    # chi(G) = chi(G - e) - chi(G / e), with G / e from minors.contract_edge,
    # for every link, half edge and negative loop; chi* only on links, where
    # the zero-free identity holds too
    rng = seeded(405)
    checked = set()
    for _ in range(60):
        g = kernel_graph(rng)
        for e in g.edges:
            if e.kind is EdgeKind.LOOSE or (e.kind is EdgeKind.LOOP and e.sign == 1):
                continue
            minus = delete_edges(g, [e.id])
            contracted, _ = contract_edge(g, e.id)
            assert chromatic_poly_delcon(g) == (
                chromatic_poly_delcon(minus) - chromatic_poly_delcon(contracted)
            )
            if e.kind is EdgeKind.LINK:
                assert chromatic_poly_delcon(g, zero_free=True) == (
                    chromatic_poly_delcon(minus, zero_free=True)
                    - chromatic_poly_delcon(contracted, zero_free=True)
                )
            checked.add(e.kind)
    assert checked == {EdgeKind.LINK, EdgeKind.HALF, EdgeKind.LOOP}


def test_pm_kn_closed_forms_up_to_8():
    for n in range(1, 9):
        g, chi, star = catalog("pm_kn", n=n)
        assert chromatic_poly_delcon(g) == chi
        assert chromatic_poly_delcon(g, zero_free=True) == star


def power_of_lambda_minus_1(k):
    return IntPolynomial(comb(k, j) * (-1) ** (k - j) for j in range(k + 1))


def cycle(n, negative):
    """An n-cycle whose first `negative` links are negative, the rest positive."""
    return SignedGraph(n, [link(f"c{i}", i, (i + 1) % n, -1 if i < negative else 1) for i in range(n)])


def closed_form_in_a_second(g, chi, chi_star):
    start = time.perf_counter()
    assert chromatic_poly_delcon(g) == chi
    assert chromatic_poly_delcon(g, zero_free=True) == chi_star
    assert time.perf_counter() - start < 1.0


def test_long_path_is_lambda_times_lambda_minus_1_to_the_links():
    rng = seeded(406)
    g = SignedGraph(200, [link(f"p{i}", i, i + 1, rng.choice((1, -1))) for i in range(199)])
    p = power_of_lambda_minus_1(199) * IntPolynomial.x()
    closed_form_in_a_second(g, p, p)


def test_long_cycles_have_their_closed_forms():
    # the deletion-contraction link cap admits cycles of up to 256 links
    n = 256
    p = power_of_lambda_minus_1(n)
    closed_form_in_a_second(cycle(n, 1), p, p - 1)
    balanced = p + power_of_lambda_minus_1(1)
    closed_form_in_a_second(cycle(n, 2), balanced, balanced)
    for n in range(3, 7):
        p = power_of_lambda_minus_1(n)
        sign = (-1) ** n
        assert chromatic_poly_delcon(cycle(n, 1)) == chromatic_poly_subset(cycle(n, 1)) == p
        assert chromatic_poly_delcon(cycle(n, 1), zero_free=True) == p - sign
        balanced = p + power_of_lambda_minus_1(1).scale(sign)
        assert chromatic_poly_delcon(cycle(n, 2)) == chromatic_poly_subset(cycle(n, 2)) == balanced
        assert chromatic_poly_delcon(cycle(n, 2), zero_free=True) == balanced


def test_a_path_past_the_link_cap_raises_sg_error_not_recursion_error():
    g = SignedGraph(1200, [link(f"p{i}", i, i + 1, 1) for i in range(1199)])
    for route in (chromatic_poly_delcon, chromatic_via_expansion, characteristic_polynomial, chromatic_numbers):
        with pytest.raises(SgError, match="deletion-contraction link cap exceeded"):
            route(g)


def test_three_frames_a_level_fit_at_the_link_cap(monkeypatch):
    # A tracer that wraps `_delcon` by name in two more functions makes each
    # level of the recursion cost three frames.  At the cap that is about
    # 3 * 257 frames, which leaves room under Python's default limit of 1000.
    links = CAPS["deletion-contraction link"][0]
    assert 3 * (links + 1) <= 800
    inner = coloring._delcon

    def middle(state, zero_free, memo):
        return inner(state, zero_free, memo)

    def outer(state, zero_free, memo):
        return middle(state, zero_free, memo)

    monkeypatch.setattr(coloring, "_delcon", outer)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    path = SignedGraph(links + 1, [link(f"p{i}", i, i + 1, -1) for i in range(links)])
    p = power_of_lambda_minus_1(links)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 3 * (links + 1) + 10)
    try:
        assert chromatic_poly_delcon(path) == p * IntPolynomial.x()
        assert chromatic_poly_delcon(cycle(links, 1), zero_free=True) == p - 1
    finally:
        sys.setrecursionlimit(limit)
