"""End-to-end acceptance checks, one per guarantee the package makes.

Each test prints a single pass/fail line; run with `pytest -s` to see them
as they go.  Everything is seeded and deterministic.
"""

import math
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from signedgraph import (
    BidirectedGraph,
    SignedGraph,
    adjacency_matrix,
    catalog,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    chromatic_via_expansion,
    closure,
    closure_by_circuits,
    color_pair_capacity,
    construct_gramian,
    count_proper,
    edge_vector,
    enumerate_frame_circuits,
    generalized_line_graph,
    half,
    harary_bipartition,
    incidence_columns,
    incidence_matrix,
    is_balanced,
    laplacian,
    line_adjacency_identity,
    line_graph,
    link,
    loop,
    loose,
    matrix_tree,
    max_used_pairs_bruteforce,
    membership_in_root_system,
    negate,
    orient,
    plus_minus_kn,
    plus_minus_kn_full,
    rank,
    rational_rank,
    reduced_line_graph,
    region_count,
    root_system,
    spectrum,
    switch_set,
    switching_equivalent,
    switching_isomorphic,
    unsigned_chromatic,
    verify_representation,
    IntPolynomial,
)
from signedgraph.cli import VERBS
from conftest import balance_oracle, cli_env, fixture_path, random_graph, seeded
from test_golden import CASES, FORMATS, golden_path

SIGMA4_PATH = fixture_path("sigma4.sg")


@contextmanager
def report(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL")
        raise
    print(f"criterion {num:2d} ({label}): PASS")


def load_sigma4():
    from signedgraph import parse

    with open(SIGMA4_PATH, "rb") as fh:
        return parse(fh.read())


BASES = {
    "P3": (3, [(0, 1), (1, 2)]),
    "C3": (3, [(0, 1), (1, 2), (0, 2)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K4-e": (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
}


def all_signatures(n, edge_list, with_half=False):
    for signs in product((1, -1), repeat=len(edge_list)):
        edges = [
            link(f"e{i}", u, v, s)
            for i, ((u, v), s) in enumerate(zip(edge_list, signs))
        ]
        if with_half:
            edges = edges + [half("h0", 0), half("h2", 2)]
        yield SignedGraph(n, edges)


def test_criterion_01_balance_equivalence():
    with report(1, "balance three ways"):
        rng = seeded(1001)
        for _ in range(200):
            g = random_graph(rng, n_max=7, m_max=12)
            a = is_balanced(g)
            b = balance_oracle(g)
            c = harary_bipartition(g) is not None
            assert a == b == c


def test_criterion_02_chromatic_agreement():
    with report(2, "chromatic three-way + counting"):
        for n, edge_list in BASES.values():
            for with_half in (False, True):
                for g in all_signatures(n, edge_list, with_half):
                    chi = chromatic_poly_delcon(g)
                    assert chi == chromatic_poly_subset(g)
                    assert chi == chromatic_via_expansion(g)
                    star = chromatic_poly_delcon(g, zero_free=True)
                    assert star == chromatic_poly_subset(g, zero_free=True)
                    for k in range(4):
                        assert chi(2 * k + 1) == count_proper(g, k)
                        assert star(2 * k) == count_proper(g, k, zero_free=True)


def test_criterion_03_closed_forms():
    with report(3, "complete-expansion closed forms"):
        for n in range(1, 5):
            gf, chif, starf = catalog("pm_kn_full", n=n)
            assert chif == IntPolynomial.from_roots([2 * i - 1 for i in range(1, n + 1)])
            assert starf == IntPolynomial.from_roots([2 * i - 2 for i in range(1, n + 1)])
            assert chif == chromatic_poly_delcon(gf)
            assert starf == chromatic_poly_delcon(gf, zero_free=True)
            g, chi, star = catalog("pm_kn", n=n)
            expected = IntPolynomial.from_roots(
                [2 * i - 1 for i in range(1, n)]
            ) * IntPolynomial.from_roots([n - 1])
            assert chi == expected
            assert chi == chromatic_poly_delcon(g)
            assert star == chromatic_poly_delcon(g, zero_free=True)


def test_criterion_04_region_counts():
    with report(4, "region counts"):
        for n in range(1, 5):
            gf = plus_minus_kn_full(n)
            g = plus_minus_kn(n)
            repf = region_count(gf)
            rep = region_count(g)
            assert repf.region_count == 2**n * math.factorial(n)
            assert rep.region_count == 2 ** (n - 1) * math.factorial(n)
            if n <= 3:
                repf = region_count(gf, oracle=True, count_acyclic=True)
                rep = region_count(g, oracle=True, count_acyclic=True)
                assert repf.region_count == repf.sign_vector_regions == repf.acyclic_count
                assert rep.region_count == rep.sign_vector_regions == rep.acyclic_count


def test_criterion_05_matrix_identities():
    with report(5, "fixture matrix identities"):
        g = load_sigma4()
        printed_h = [
            [1, 0, 0, 1, -1, -1, 0],
            [-1, 1, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, -1, 1],
            [0, 0, -1, 1, 1, 0, 0],
        ]
        h = incidence_matrix(g)
        for j in range(7):
            col = [h[i][j] for i in range(4)]
            ref = [printed_h[i][j] for i in range(4)]
            assert col == ref or col == [-x for x in ref]
        assert adjacency_matrix(g) == [
            [0, 1, -1, 0],
            [1, 0, -1, 0],
            [-1, -1, 1, 1],
            [0, 0, 1, 0],
        ]
        lap = laplacian(g)
        # off-diagonal entries match the published Laplacian; the diagonal
        # entry at the half-edge vertex is the identity-consistent value
        hht = [
            [sum(h[i][k] * h[j][k] for k in range(7)) for j in range(4)]
            for i in range(4)
        ]
        assert lap == hht
        rep = matrix_tree(g)
        assert rep.det_laplacian == 53
        assert rep.weighted_sum == 53
        assert rep.circle_counts[:2] == (13, 10)
        assert sum(rep.circle_counts[2:]) == 0
        assert rep.consistent


def test_criterion_06_rank_law():
    with report(6, "rank law and frame circuits"):
        rng = seeded(1006)
        for _ in range(50):
            g = random_graph(rng, n_max=5, m_max=8)
            ids = sorted(g.edge_ids)
            dependents = {}
            for r in range(len(ids) + 1):
                for combo in combinations(ids, r):
                    s = frozenset(combo)
                    rr = rational_rank(incidence_columns(g, s))
                    assert rr == rank(g, s) == g.n - __import__(
                        "signedgraph"
                    ).balance_partition(g, s).b
                    dependents[s] = rr < len(s)
            minimal = {
                s
                for s, dep in dependents.items()
                if dep and s and all(not dependents[s - {e}] for e in s)
            }
            circuits = {
                fc.edge_set
                for fc in enumerate_frame_circuits(g, n_cap=g.n, edge_cap=len(g.edges))
            }
            assert minimal == circuits


def closure_fixture_family():
    tri = [link("a", 0, 1, 1), link("b", 1, 2, 1), link("c", 0, 2, -1)]
    return [
        SignedGraph(3, tri),
        SignedGraph(4, tri + [link("d", 2, 3, 1), loop("l", 3, -1), half("h", 0)]),
        SignedGraph(
            4,
            [
                link("a", 0, 1, 1),
                link("b", 1, 2, -1),
                link("c", 2, 3, 1),
                link("d", 0, 3, -1),
                link("e", 0, 3, 1),
                link("f", 0, 2, -1),
                half("h", 2),
            ],
        ),
        SignedGraph(2, [link("a", 0, 1, 1), link("b", 0, 1, -1), loose("x"), loop("p", 0, 1)]),
        SignedGraph(
            5,
            [
                link("a", 0, 1, 1),
                link("b", 1, 2, 1),
                link("c", 0, 2, 1),
                link("d", 2, 3, -1),
                link("e", 3, 4, -1),
                link("f", 2, 4, -1),
                loop("m", 4, -1),
                half("h", 0),
                loose("x"),
            ],
        ),
    ]


def test_criterion_07_closure_laws():
    with report(7, "closure laws and exchange"):
        for g in closure_fixture_family():
            ids = sorted(g.edge_ids)
            assert len(ids) <= 9
            clos = {}
            for r in range(len(ids) + 1):
                for combo in combinations(ids, r):
                    s = frozenset(combo)
                    c = closure(g, s)
                    clos[s] = c
                    assert c == closure_by_circuits(g, s)
                    assert s <= c
            for s, c in clos.items():
                assert clos[c] == c  # idempotent
                for e in ids:
                    assert clos[s] <= clos[s | {e}]  # monotone
            # exchange: e not in clos(S), e in clos(S + f) implies
            # f in clos(S + e)
            for s in clos:
                cs = clos[s]
                for f in ids:
                    if f in s:
                        continue
                    csf = clos[s | {f}]
                    for e in ids:
                        if e in cs or e in s or e == f:
                            continue
                        if e in csf:
                            assert f in clos[s | {e}]


def test_criterion_08_line_graph_identity():
    with report(8, "line-graph identity"):
        rng = seeded(1008)
        checked = 0
        while checked < 100:
            g = random_graph(rng, n_max=6, m_max=10, kinds="links")
            a, rhs = line_adjacency_identity(g)
            assert a == rhs
            red = reduced_line_graph(g).graph
            if red.n:
                ev = spectrum(adjacency_matrix(red))
                if ev:
                    assert max(ev) <= 2 + 1e-9
            checked += 1
        # line graphs of two switchings and reorientations are equivalent
        done = 0
        while done < 10:
            g = random_graph(rng, n_max=5, m_max=8, kinds="links")
            if len(g.edges) < 2:
                continue
            s1 = [v for v in range(g.n) if rng.random() < 0.5]
            s2 = [v for v in range(g.n) if rng.random() < 0.5]
            l1 = line_graph(switch_set(g, s1)).graph
            l2 = line_graph(switch_set(g, s2)).graph
            assert switching_equivalent(l1, l2) is not None
            base = orient(g)
            tau = dict(base.tau)
            for e in g.edges:
                if rng.random() < 0.5:
                    for slot in range(len(e.ends)):
                        tau[(e.id, slot)] = -tau[(e.id, slot)]
            l3 = line_graph(BidirectedGraph(g, tau)).graph
            assert switching_equivalent(l1, l3) is not None
            done += 1


def test_criterion_09_generalized_line_graph():
    with report(9, "generalized line graph"):
        edge_list = [(0, 1), (1, 2), (2, 3), (0, 3)]
        src, glg = generalized_line_graph(4, edge_list, [1, 2, 0, 0])
        red = reduced_line_graph(src).graph
        assert switching_isomorphic(red, glg) is not None
        # the paper-convention generalized line graph is our negation
        ev = spectrum(adjacency_matrix(negate(glg)))
        assert min(ev) >= -2 - 1e-9


def test_criterion_10_angle_representations():
    with report(10, "angle representations and root systems"):
        rng = seeded(1010)
        for _ in range(100):
            g = random_graph(rng, n_max=5, m_max=10, kinds="simple")
            ev = spectrum(adjacency_matrix(g)) if g.n else []
            for nu in (1, 2, 3):
                rep = construct_gramian(g, nu)
                exists = (not ev) or min(ev) >= -nu - 1e-8
                assert (rep is not None) == exists
                if rep is not None:
                    assert verify_representation(g, rep)
                    # Gram round trip within 1e-8
                    a = adjacency_matrix(g)
                    for v in range(g.n):
                        for w in range(g.n):
                            d = sum(x * y for x, y in zip(rep.rho[v], rep.rho[w]))
                            target = a[v][w] + (nu if v == w else 0)
                            assert abs(d - target) < 1e-8
        for n in (2, 3, 4):
            g = plus_minus_kn(n)
            vecs = [edge_vector(g, e.id) for e in g.edges]
            assert membership_in_root_system(vecs, root_system("D", n))
            gf = plus_minus_kn_full(n)
            vecsf = [edge_vector(gf, e.id) for e in gf.edges]
            assert membership_in_root_system(vecsf, root_system("B", n))
            assert len(root_system("D", n)) == 2 * n * (n - 1)
            assert len(root_system("B", n)) == 2 * n * n
            assert len(root_system("C", n)) == 2 * n * n
        assert len(root_system("E8")) == 240


def test_criterion_11_catalog_cross_checks():
    with report(11, "catalog cross-checks"):
        k4 = (4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        bases = dict(BASES, K4=k4)
        for name in ("P3", "C4", "C3", "K4"):
            n, edge_list = bases[name if name != "C3" else "C3"]
            chi_gamma = unsigned_chromatic(n, edge_list)
            g, chi, _ = catalog("all_positive", n=n, edge_list=edge_list)
            assert chi == chi_gamma == chromatic_poly_delcon(g)
            gf, chif, _ = catalog("all_positive_full", n=n, edge_list=edge_list)
            assert chif == chi_gamma.compose_affine(1, -1).as_int()
            assert chif == chromatic_poly_delcon(gf)
            gn, _, star = catalog("all_negative", n=n, edge_list=edge_list)
            assert star == chromatic_poly_delcon(gn, zero_free=True)
            ge, chie, _ = catalog("signed_expansion_full", n=n, edge_list=edge_list)
            expected = (
                chi_gamma.compose_affine(Fraction(1, 2), Fraction(-1, 2))
                .scale(2**n)
                .as_int()
            )
            assert chie == expected == chromatic_poly_delcon(ge)
            # color-pair capacity of the all-negative signature equals the
            # maximum matching of the complement, found here by trying every
            # set of non-adjacent pairs
            cap = color_pair_capacity(n, edge_list)
            present = {frozenset(e) for e in edge_list}
            non_edges = [p for p in combinations(range(n), 2) if frozenset(p) not in present]
            assert cap == max(
                r for r in range(len(non_edges) + 1) for pairs in combinations(non_edges, r)
                if len({v for p in pairs for v in p}) == 2 * r
            )
            assert cap == max_used_pairs_bruteforce(n, edge_list, n)


def test_criterion_12_cli_determinism():
    """Each verb's first golden case, launched once per format through the
    module entry point with --threads 4 and a random hash seed, prints its
    golden file byte for byte.  That file was written by another process, and
    test_golden reads it back in this one at the default --threads 1, so each
    output is compared across three hash seeds and two --threads values."""
    first = {}
    for case in sorted(CASES):
        first.setdefault(CASES[case][0], case)
    with report(12, "CLI determinism"):
        assert set(first) == set(VERBS), "a verb without a golden case"
        for case in sorted(first.values()):
            for fmt, extra in sorted(FORMATS.items()):
                r = subprocess.run(
                    [sys.executable, "-m", "signedgraph.cli", *CASES[case], *extra, "--threads", "4"],
                    capture_output=True,
                    env=cli_env(),
                )
                assert r.returncode == 0, (case, fmt, r.stderr)
                with open(golden_path(case, fmt), "rb") as fh:
                    assert r.stdout == fh.read(), (case, fmt)
