"""The cap table `core.CAPS`: for each cap, the smallest input over its limit
stops with `<name> cap exceeded (<quantity> <used> > <limit>)`, raised as
SgError by the library or printed after `error: ` by sgtool, which exits 1."""

import os
import random
import re
import subprocess
import sys
import time

import pytest

from signedgraph import (
    SgError,
    SignedGraph,
    adjacency_matrix,
    catalog,
    chromatic_poly_delcon,
    chromatic_poly_subset,
    chromatic_via_expansion,
    closed_sets,
    closure_by_circuits,
    color_pair_capacity,
    count_proper,
    degree_matrix,
    count_regions_by_sign_vectors,
    enumerate_acyclic,
    enumerate_circles,
    enumerate_frame_circuits,
    half,
    has_two_disjoint_negative_circles,
    incidence_matrix,
    is_acyclic,
    laplacian,
    link,
    matrix_tree,
    max_used_pairs_bruteforce,
    min_balancing_set,
    min_balancing_set_exhaustive,
    orient,
    parse,
    plus_minus_kn,
    plus_minus_kn_full,
    region_count,
    region_witness_point,
    root_system,
    serialize,
    spectrum,
    switching_isomorphic,
)
from signedgraph.core import CAPS
from signedgraph.linegraph import generalized_line_graph, multigraph_with_petals
from conftest import cli_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def halves(m):
    """m half edges at one vertex."""
    return SignedGraph(1, [half(f"h{i}", 0) for i in range(m)])


def raised(fn, *args):
    def case(tmp_path):
        with pytest.raises(SgError) as exc:
            fn(*args)
        return str(exc.value)

    return case


def sgtool(argv, timeout=10):
    """Run sgtool; the completed process."""
    cmd = [sys.executable, "-m", "signedgraph.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=cli_env(), timeout=timeout)


def exits_1(verb, text, *options):
    def case(tmp_path):
        path = tmp_path / "in.sg"
        path.write_text(text)
        r = sgtool([verb, str(path), *options])
        assert r.returncode == 1 and r.stdout == ""
        err = r.stderr
        if "--max-edges" in options:
            warning = f"warning: edge cap overridden to {options[options.index('--max-edges') + 1]}\n"
            assert err.startswith(warning)
            err = err[len(warning):]
        assert err.startswith("error: ") and err.endswith("\n")
        return err[len("error: "):-1]

    return case


def exits_1_without_input(*argv):
    """sgtool on argv alone, reading no file: its error message."""
    def case(tmp_path):
        r = sgtool(list(argv))
        assert r.returncode == 1 and r.stdout == ""
        return r.stderr.splitlines()[-1][len("error: "):]

    return case


def links64(seed):
    """64 distinct links with random signs on 24 vertices, like cli-desk's links64."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < 64:
        pairs.add(tuple(sorted(rng.sample(range(24), 2))))
    return SignedGraph(24, [link(f"e{i}", u, v, rng.choice((1, -1))) for i, (u, v) in enumerate(sorted(pairs))])


def links8(m, seed=1):
    """m links with random ends and signs on 8 vertices, parallel links allowed."""
    rng = random.Random(seed)
    return SignedGraph(8, [link(f"e{i}", *rng.sample(range(8), 2), rng.choice((1, -1))) for i in range(m)])


def negative_cycle(n):
    """An n-cycle whose one negative link is c0."""
    return SignedGraph(n, [link(f"c{i}", i, (i + 1) % n, -1 if i == 0 else 1) for i in range(n)])


def long_path(n):
    """The all-positive path on n vertices, n - 1 links."""
    return SignedGraph(n, [link(f"p{i}", i, i + 1, 1) for i in range(n - 1)])


def complete(n, negative=()):
    """K_n with every link positive but those in negative, pairs (i, j) with i < j."""
    return SignedGraph(n, [link(f"k{i}_{j}", i, j, -1 if (i, j) in negative else 1)
                           for i in range(n) for j in range(i + 1, n)])


K2 = "sg 1\nn 2\nedge a 1 2 +\n"
K4 = "sg 1\nn 4\n" + "".join(f"edge e{u}{v} {u} {v} +\n" for u in range(1, 5) for v in range(u + 1, 5))


K7_PAIRS = [(i, j) for i in range(7) for j in range(i + 1, 7)]
# 24 links on 12 vertices: steps of 1, 2 and 3 along a path
BASE24 = [(i, i + d) for d, k in ((1, 11), (2, 10), (3, 3)) for i in range(k)]

CASES = {
    "circle enumeration": [
        ("circle enumeration cap exceeded (edges 21 > 20)", raised(enumerate_circles, halves(21))),
        ("circle enumeration cap exceeded (edges 21 > 20)",
         raised(has_two_disjoint_negative_circles, halves(21))),
    ],
    "frame-circuit enumeration": [
        ("frame-circuit enumeration cap exceeded (vertices 11 > 10)",
         raised(enumerate_frame_circuits, SignedGraph(11, []))),
    ],
    "frame-circuit edge": [
        ("frame-circuit edge cap exceeded (edges 21 > 20)", raised(enumerate_frame_circuits, halves(21))),
        # S of 20 edges: each S + e has 21
        ("frame-circuit edge cap exceeded (edges 21 > 20)",
         raised(closure_by_circuits, halves(21), {f"h{i}" for i in range(20)})),
    ],
    "closed-set": [
        ("closed-set cap exceeded (edges 17 > 16)", raised(closed_sets, halves(17))),
        ("closed-set cap exceeded (edges 17 > 16)",
         raised(catalog, "all_negative", None, 7, K7_PAIRS[:17])),
    ],
    "balancing-set": [
        ("balancing-set cap exceeded (component order 21 > 20)", raised(min_balancing_set, negative_cycle(21))),
    ],
    "exhaustive balancing-set": [
        ("exhaustive balancing-set cap exceeded (edges 21 > 20)",
         raised(min_balancing_set_exhaustive, halves(21))),
    ],
    "orientation": [
        ("orientation cap exceeded (edge ends 25 > 24)", raised(enumerate_acyclic, halves(25))),
        ("orientation cap exceeded (edge ends 25 > 24)", raised(is_acyclic, orient(halves(25)))),
    ],
    "coloration": [
        ("coloration cap exceeded (colorations 4782969 > 2000000)",
         raised(count_proper, SignedGraph(14, []), 1)),
        ("coloration cap exceeded (colorations 2097152 > 2000000)",
         raised(max_used_pairs_bruteforce, 21, [], 1)),
    ],
    "subset-expansion": [
        ("subset-expansion cap exceeded (edges 21 > 20)", raised(chromatic_poly_subset, halves(21))),
    ],
    "region-oracle": [
        ("region-oracle cap exceeded (vertices 7 > 6)",
         raised(count_regions_by_sign_vectors, SignedGraph(7, []))),
        ("region-oracle cap exceeded (vertices 7 > 6)",
         raised(region_witness_point, SignedGraph(7, []), orient(SignedGraph(7, [])))),
    ],
    "matrix-tree": [
        ("matrix-tree cap exceeded (vertices 9 > 8)", raised(matrix_tree, SignedGraph(9, []))),
    ],
    "matrix-tree set": [  # C(25, 8) = 1081575
        ("matrix-tree set cap exceeded (n-edge sets 1081575 > 1048576)", raised(matrix_tree, links8(25))),
        ("matrix-tree set cap exceeded (n-edge sets 1081575 > 1048576)",
         exits_1("matrix-tree", serialize(links8(25)).decode())),
    ],
    "matching": [
        ("matching cap exceeded (vertices 21 > 20)", raised(color_pair_capacity, 21, [])),
    ],
    "dense-matrix": [
        ("dense-matrix cap exceeded (vertices 2049 > 2048)", raised(adjacency_matrix, SignedGraph(2049, []))),
        ("dense-matrix cap exceeded (vertices 2049 > 2048)", raised(degree_matrix, SignedGraph(2049, []))),
        ("dense-matrix cap exceeded (vertices 2049 > 2048)", raised(incidence_matrix, SignedGraph(2049, []))),
        ("dense-matrix cap exceeded (vertices 2049 > 2048)", raised(laplacian, SignedGraph(2049, []))),
        ("dense-matrix cap exceeded (vertices 2049 > 2048)", exits_1("matrix", "sg 1\nn 2049\n")),
    ],
    "spectrum block": [  # a path is one block of the nonzero pattern
        ("spectrum block cap exceeded (vertices 129 > 128)", raised(spectrum, adjacency_matrix(long_path(129)))),
        ("spectrum block cap exceeded (vertices 129 > 128)",
         exits_1("spectrum", serialize(long_path(129)).decode(), "--max-edges", "128")),
    ],
    "deletion-contraction": [
        ("deletion-contraction cap exceeded (states 20001 > 20000)", raised(chromatic_poly_delcon, links64(1))),
    ],
    "deletion-contraction link": [
        ("deletion-contraction link cap exceeded (links 257 > 256)", raised(chromatic_poly_delcon, long_path(258))),
        ("deletion-contraction link cap exceeded (links 257 > 256)", raised(chromatic_via_expansion, long_path(258))),
        ("deletion-contraction link cap exceeded (links 257 > 256)", raised(region_count, long_path(258))),
    ],
    "stable-set": [  # 2^16 stable sets
        ("stable-set cap exceeded (stable sets 32769 > 32768)", raised(chromatic_via_expansion, SignedGraph(16, []))),
        ("stable-set cap exceeded (stable sets 32769 > 32768)",
         exits_1("chromatic", "sg 1\nn 16\n", "--algorithm", "expansion")),
    ],
    "switching-isomorphism": [
        ("switching-isomorphism cap exceeded (candidates 32769 > 32768)",
         raised(switching_isomorphic, complete(8), complete(8, [(0, 1)]))),
        # 257 line vertices: the map tries at least 1 + 2 + ... + 257 (v, w)
        ("switching-isomorphism cap exceeded (candidates 32769 > 32768)",
         exits_1("glinegraph", K2, "--m", "128,0", "--max-edges", "257")),
    ],
    "root-system": [
        ("root-system cap exceeded (dimension 33 > 32)", raised(root_system, "A", 33)),
        ("root-system cap exceeded (dimension 33 > 32)",
         exits_1_without_input("roots", "--name", "A", "--n", "33")),
    ],
    "input-edge": [
        ("input-edge cap exceeded (edges 65 > 64)",
         exits_1("info", "sg 1\nn 1\n" + "".join(f"half h{i} 1\n" for i in range(65)))),
        ("input-edge cap exceeded (edges 65 > 64)", exits_1("glinegraph", K2, "--m", "32,0")),
        ("input-edge cap exceeded (edges 33 > 32)", exits_1("glinegraph", K2, "--m", "0,16", "--max-edges", "32")),
        ("input-edge cap exceeded (edges 72 > 64)",
         exits_1_without_input("catalog", "--family", "pmkn", "--n", "9")),
        ("input-edge cap exceeded (edges 64 > 63)",
         exits_1_without_input("catalog", "--family", "pmknfull", "--n", "8", "--max-edges", "63")),
    ],
    "complete-graph": [  # C(257, 2) = 32896 vertex pairs
        ("complete-graph cap exceeded (pairs 32896 > 32768)", raised(plus_minus_kn, 257)),
        ("complete-graph cap exceeded (pairs 32896 > 32768)", raised(plus_minus_kn_full, 257)),
    ],
    "input-vertex": [
        ("input-vertex cap exceeded (vertices 1000001 > 1000000)", exits_1("balance", "sg 1\nn 1000001\n")),
        ("input-vertex cap exceeded (vertices 1000001 > 1000000)", raised(SignedGraph, 10**6 + 1, [])),
        ("input-vertex cap exceeded (vertices 99999999999 > 1000000)", raised(parse, b"sg 1\nn 99999999999\n")),
    ],
}


def test_every_cap_has_a_case():
    assert set(CASES) == set(CAPS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_smallest_input_over_a_cap_names_it(name, tmp_path):
    for expected, case in CASES[name]:
        assert case(tmp_path) == expected


def test_inputs_at_the_caps_pass(tmp_path):
    assert len(enumerate_circles(halves(20))) == 0
    assert enumerate_frame_circuits(SignedGraph(10, [])) == []
    assert min_balancing_set(negative_cycle(20)) == {"c0"}
    assert matrix_tree(SignedGraph(8, [])).consistent
    assert color_pair_capacity(20, []) == 10
    assert chromatic_poly_delcon(long_path(257)).degree == 257
    assert chromatic_via_expansion(SignedGraph(15, [])).degree == 15
    assert incidence_matrix(SignedGraph(2048, [])) == [[]] * 2048
    assert len(spectrum(adjacency_matrix(long_path(128)))) == 128
    assert len(root_system("D", 32)) == 4 * 32 * 31 // 2
    assert closure_by_circuits(halves(21), {f"h{i}" for i in range(19)}) == halves(21).edge_ids
    path = tmp_path / "path.sg"
    path.write_text("sg 1\nn 1\n" + "".join(f"half h{i} 1\n" for i in range(64)))
    assert sgtool(["info", str(path)]).returncode == 0
    for family, n in (("pmkn", 8), ("pmknfull", 8)):  # 56 and 64 edges
        assert sgtool(["catalog", "--family", family, "--n", str(n)]).returncode == 0
    assert switching_isomorphic(complete(7), complete(7, [(0, 1)])) is None  # 25,130 (v, w)
    assert len(plus_minus_kn_full(256).edges) == 256 * 256  # C(256, 2) = 32,640 pairs
    path.write_text(K4)
    r = sgtool(["glinegraph", str(path), "--m", "8,7,7,7"])  # 6 + 2 * 29 = 64 petal graph edges
    assert r.returncode == 0 and r.stdout.endswith("identity: true\n")


def within_a_second(fn, *args):
    start = time.perf_counter()
    with pytest.raises(SgError, match="cap exceeded"):
        fn(*args)
    assert time.perf_counter() - start < 1.0


def test_routines_that_used_to_run_unbounded_stop_at_once():
    k10 = SignedGraph(10, [link(f"e{i}_{j}", i, j, -1 if (i + j) % 3 else 1)
                           for i in range(10) for j in range(i + 1, 10)])
    within_a_second(is_acyclic, orient(k10))
    digon = SignedGraph(8, [link(f"p{i}", i, i + 1, 1) for i in range(7)] + [link("m", 0, 1, -1)])
    within_a_second(region_witness_point, digon, orient(digon))
    within_a_second(switching_isomorphic, complete(9), complete(9, [(0, 1)]))
    # a recursive search ran out of frames here instead of reaching the cap
    within_a_second(switching_isomorphic, SignedGraph(1500, []), SignedGraph(1500, []))
    within_a_second(SignedGraph, 10**11, [])
    within_a_second(parse, b"sg 1\nn 99999999999\n")


# each of these built O(n^2) pairs, petals or nothing at all before it raised
@pytest.mark.parametrize("call, message", [
    (lambda: plus_minus_kn(10**11), "input-vertex cap exceeded (vertices 100000000000 > 1000000)"),
    (lambda: plus_minus_kn_full(10**11), "input-vertex cap exceeded (vertices 100000000000 > 1000000)"),
    (lambda: plus_minus_kn(10**6), "complete-graph cap exceeded (pairs 499999500000 > 32768)"),
    (lambda: plus_minus_kn_full(10**6), "complete-graph cap exceeded (pairs 499999500000 > 32768)"),
    (lambda: plus_minus_kn(-300), "order n must be an int >= 0, got -300"),  # not as C(-300, 2) pairs
    (lambda: color_pair_capacity(10**11, []), "matching cap exceeded (vertices 100000000000 > 20)"),
    (lambda: generalized_line_graph(2, [(0, 1)], [10**11, 0]),
     "input-vertex cap exceeded (vertices 100000000002 > 1000000)"),
    (lambda: root_system(None, 3), "unknown root system None"),
], ids=["plus_minus_kn", "plus_minus_kn_full", "plus_minus_kn_1e6", "plus_minus_kn_full_1e6", "plus_minus_kn_negative",
        "color_pair_capacity", "generalized_line_graph", "root_system"])
def test_an_order_is_checked_before_anything_of_that_size_is_built(call, message):
    start = time.perf_counter()
    with pytest.raises(SgError) as exc:
        call()
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == message


def test_matrix_tree_on_64_links_exits_at_the_set_cap_and_answers_on_24(tmp_path):
    path = tmp_path / "links8.sg"
    path.write_bytes(serialize(links8(64)))
    start = time.perf_counter()
    r = sgtool(["matrix-tree", str(path)])
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "error: matrix-tree set cap exceeded (n-edge sets 4426165368 > 1048576)\n"
    report = matrix_tree(links8(24))  # C(24, 8) = 735471 sets, under the cap
    assert report.consistent and sum(report.circle_counts) > 0


def test_catalog_of_a_huge_complete_expansion_exits_at_the_input_edge_cap():
    start = time.perf_counter()
    r = sgtool(["catalog", "--family", "pmkn", "--n", "20000"])
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "error: input-edge cap exceeded (edges 399980000 > 64)\n"


def test_polynomial_verbs_on_64_links_exit_at_the_deletion_contraction_cap(tmp_path):
    path = tmp_path / "links64.sg"
    path.write_bytes(serialize(links64(2)))
    for verb in ("chromatic", "charpoly", "regions", "acyclic"):
        r = sgtool([verb, str(path)])
        assert r.returncode == 1 and r.stdout == "", verb
        assert r.stderr == "error: deletion-contraction cap exceeded (states 20001 > 20000)\n", verb


def test_expansion_of_24_isolated_vertices_exits_at_the_stable_set_cap(tmp_path):
    path = tmp_path / "empty24.sg"
    path.write_text("sg 1\nn 24\n")
    start = time.perf_counter()
    r = sgtool(["chromatic", str(path), "--algorithm", "expansion"])
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "error: stable-set cap exceeded (stable sets 32769 > 32768)\n"


def test_dense_matrix_verbs_on_20000_vertices_exit_at_the_dense_matrix_cap(tmp_path):
    path = tmp_path / "wide.sg"
    path.write_text("sg 1\nn 20000\nedge a 1 2 -\n")
    for argv in (["matrix", "--which", "adjacency"], ["spectrum"], ["gramian", "--nu", "2"]):
        start = time.perf_counter()
        r = sgtool([argv[0], str(path), *argv[1:]])
        assert time.perf_counter() - start < 2.0, argv
        assert r.returncode == 1 and r.stdout == "", argv
        assert r.stderr == "error: dense-matrix cap exceeded (vertices 20000 > 2048)\n", argv


def test_spectrum_stops_at_the_block_cap_before_any_rotation():
    a = laplacian(complete(129))
    start = time.perf_counter()
    with pytest.raises(SgError) as exc:
        spectrum(a)
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == "spectrum block cap exceeded (vertices 129 > 128)"


def wide2048():
    """2,048 vertices and 64 random signed links: a wide graph of mostly zero rows."""
    rng = random.Random(30)
    pairs = sorted({tuple(sorted(rng.sample(range(2048), 2))) for _ in range(64)})
    return SignedGraph(2048, [link(f"e{i}", u, v, rng.choice((1, -1))) for i, (u, v) in enumerate(pairs)])


def test_spectrum_of_2048_vertices_and_64_links_answers_within_a_second(tmp_path):
    path = tmp_path / "wide.sg"
    path.write_bytes(serialize(wide2048()))
    start = time.perf_counter()
    r = sgtool(["spectrum", str(path)])
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 0 and len(r.stdout.split(", ")) == 2048


def test_laplacian_and_degree_matrix_of_2048_vertices_and_64_links_answer_within_0_2_s():
    # each is one pass over the edges into one n x n list, with no D or A built for L
    g = wide2048()
    for fn in (laplacian, degree_matrix):
        start = time.perf_counter()
        fn(g)
        assert time.perf_counter() - start < 0.2, fn.__name__


def test_catalog_all_negative_on_24_links_exits_at_the_closed_set_cap(tmp_path):
    path = tmp_path / "base24.sg"
    path.write_text("sg 1\nn 12\n" + "".join(f"edge e{i} {u + 1} {v + 1} +\n" for i, (u, v) in enumerate(BASE24)))
    r = sgtool(["catalog", str(path), "--family", "allnegative"])
    assert r.returncode == 1
    assert r.stderr == "error: closed-set cap exceeded (edges 24 > 16)\n"


def test_a_negative_multiplicity_is_rejected(tmp_path):
    with pytest.raises(SgError) as exc:
        multigraph_with_petals(2, [(0, 1)], [0, -1])
    assert str(exc.value) == "multiplicity must be an int >= 0, got -1"
    assert exits_1("glinegraph", K2, "--m=-1,0")(tmp_path) == "multiplicity must be an int >= 0, got -1"


@pytest.mark.parametrize("m, shown", [(1.5, "1.5"), (True, "True")])
def test_a_multiplicity_that_is_not_an_int_is_rejected(m, shown):
    with pytest.raises(SgError) as exc:
        multigraph_with_petals(2, [(0, 1)], [m, 0])
    assert str(exc.value) == f"multiplicity must be an int >= 0, got {shown}"


def test_expansion_of_a_million_isolated_vertices_stops_at_the_stable_set_cap_within_a_second():
    g = SignedGraph(10**6, [])
    start = time.perf_counter()
    with pytest.raises(SgError) as exc:
        chromatic_via_expansion(g)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == "stable-set cap exceeded (stable sets 32769 > 32768)"


def caps_table(doc):
    """The Caps table of README.md or PAPER.md: cap name -> the first number in its limit."""
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        section = fh.read().split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| ")]
    return {name.strip(): int(re.search(r"\d[\d,]*", limit).group().replace(",", ""))
            for name, limit in rows[1:]}


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_the_caps_tables_list_every_cap_with_its_limit(doc):
    assert caps_table(doc) == {name: limit for name, (limit, _) in CAPS.items()}
