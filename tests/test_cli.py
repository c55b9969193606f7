import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from signedgraph import SgError, SignedGraph, enumerate_acyclic, link, parse, serialize
from signedgraph.cli import build_parser, run
from conftest import FIXTURES, cli_env, fixture_path, random_graph, scramble, seeded

SIGMA4 = str(fixture_path("sigma4.sg"))

ALL_VERBS = {
    "info",
    "balance",
    "switch",
    "balancing-edges",
    "delete",
    "contract",
    "frame-circuits",
    "closure",
    "rank",
    "matrix",
    "matrix-tree",
    "spectrum",
    "regions",
    "acyclic",
    "charpoly",
    "chromatic",
    "catalog",
    "linegraph",
    "glinegraph",
    "roots",
    "gramian",
}


def c4_file(tmp_path, signs="++++"):
    p = tmp_path / "c4.sg"
    lines = ["sg 1", "n 4"]
    for i, s in enumerate(signs):
        lines.append(f"edge e{i + 1} {i + 1} {i % 4 + 2 if i < 3 else 1} {s}")
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def invocations(tmp_path):
    c4 = c4_file(tmp_path)
    return {
        "info": [SIGMA4],
        "balance": [SIGMA4],
        "switch": [SIGMA4, "--vertices", "1,3"],
        "balancing-edges": [SIGMA4],
        "delete": [SIGMA4, "--edges", "d,e"],
        "contract": [SIGMA4, "--edges", "a"],
        "frame-circuits": [SIGMA4],
        "closure": [SIGMA4, "--edges", "a,b"],
        "rank": [SIGMA4],
        "matrix": [SIGMA4, "--which", "laplacian"],
        "matrix-tree": [SIGMA4],
        "spectrum": [SIGMA4, "--which", "adjacency"],
        "regions": [SIGMA4, "--oracle", "--acyclic"],
        "acyclic": [SIGMA4],
        "charpoly": [SIGMA4],
        "chromatic": [SIGMA4, "--algorithm", "subset"],
        "catalog": ["--family", "pmknfull", "--n", "3"],
        "linegraph": [c4, "--reduced"],
        "glinegraph": [c4, "--m", "1,2,0,0"],
        "roots": ["--name", "D", "--n", "3"],
        "gramian": [c4, "--nu", "2"],
    }


def test_every_verb_is_exercised(tmp_path):
    inv = invocations(tmp_path)
    assert set(inv) == ALL_VERBS
    parser = build_parser()
    registered = set(parser._subparsers._group_actions[0].choices)
    assert registered == ALL_VERBS
    for verb, extra in sorted(inv.items()):
        assert run([verb, *extra]) == 0, verb
        assert run([verb, *extra, "--json"]) == 0, verb


def test_balance_text_format(capsys):
    assert run(["balance", SIGMA4]) == 0
    out = capsys.readouterr().out
    assert out == "balanced: false, b=0, V0={1,2,3,4}\n"


def test_balance_balanced_graph(tmp_path, capsys):
    p = tmp_path / "b.sg"
    p.write_text("sg 1\nn 3\nedge a 1 2 +\nedge b 2 3 -\n")
    assert run(["balance", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("balanced: true, b=1, V0={}")
    assert "harary:" in out


def test_json_canonical(capsys):
    assert run(["balance", SIGMA4, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["schema"] == "sgtool/1"
    assert payload["verb"] == "balance"
    assert payload["balanced"] is False
    assert payload["V0"] == [1, 2, 3, 4]
    # canonical: sorted keys, no spaces
    assert out.strip() == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_exit_codes(tmp_path, capsys):
    assert run(["no-such-verb", SIGMA4]) == 2
    assert run([]) == 2
    assert run(["balance", str(tmp_path / "missing.sg")]) == 1
    bad = tmp_path / "bad.sg"
    bad.write_text("sg 1\nn 2\nedge a 1 9 +\n")
    assert run(["balance", str(bad)]) == 1
    capsys.readouterr()
    for nu in ("1/0", "x", "1e400"):
        assert run(["gramian", SIGMA4, "--nu", nu]) == 1
        assert "--nu" in capsys.readouterr().err
    wide = tmp_path / "wide.sg"  # 11 vertices, over the frame-circuit cap of 10
    wide.write_text("sg 1\nn 11\n")
    assert run(["frame-circuits", str(wide)]) == 1
    assert "frame-circuit enumeration cap exceeded" in capsys.readouterr().err
    for extra, got in (([], "None"), (["--k", "-1"], "-1")):  # count_proper checks k
        assert run(["chromatic", SIGMA4, "--algorithm", "count", *extra]) == 1
        assert capsys.readouterr().err == f"error: k must be an int >= 0, got {got}\n"
    huge = tmp_path / "huge.sg"  # checked before any kernel allocates per vertex
    huge.write_text("sg 1\nn 99999999999\n")
    assert run(["balance", str(huge)]) == 1
    assert "error: input-vertex cap exceeded" in capsys.readouterr().err


def test_chromatic_expansion_rejects_zero_free(capsys):
    assert run(["chromatic", SIGMA4, "--algorithm", "expansion", "--zero-free"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expansion computes chi only" in captured.err
    assert "delcon" in captured.err and "subset" in captured.err


def test_matrix_tree_output(capsys):
    assert run(["matrix-tree", SIGMA4]) == 0
    out = capsys.readouterr().out
    assert "det-laplacian: 53" in out
    assert "consistent: true" in out


def test_charpoly_output(capsys):
    assert run(["charpoly", SIGMA4]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "λ^4 - 7λ^3 + 19λ^2 - 23λ + 10"


def test_regions_output(capsys):
    assert run(["regions", SIGMA4, "--oracle", "--acyclic"]) == 0
    out = capsys.readouterr().out
    assert "regions: 60" in out
    assert "oracle-regions: 60" in out
    assert "acyclic: 60" in out


def test_acyclic_prints_the_region_count_past_the_orientation_cap(tmp_path, capsys):
    rng = random.Random(28)
    pairs = rng.sample([(u, v) for u in range(12) for v in range(u + 1, 12)], 24)
    graphs = {
        "c30": SignedGraph(30, [link(f"e{i}", i, (i + 1) % 30, -1 if i == 0 else 1) for i in range(30)]),
        "links24": SignedGraph(12, [link(f"e{i}", u, v, rng.choice((1, -1))) for i, (u, v) in enumerate(pairs)]),
    }
    for name, g in graphs.items():
        with pytest.raises(SgError, match="orientation cap exceeded"):  # the oracle's 2^k walk stops
            enumerate_acyclic(g)
        path = tmp_path / f"{name}.sg"
        path.write_bytes(serialize(g))
        assert run(["regions", str(path)]) == 0
        regions = capsys.readouterr().out.splitlines()[0].removeprefix("regions: ")
        assert run(["acyclic", str(path)]) == 0
        assert capsys.readouterr().out == f"acyclic: {regions}\n"
        if name == "c30":
            assert regions == str(2**30)


def test_max_edges_overrides_the_edge_cap_with_a_warning(capsys):
    assert run(["info", SIGMA4, "--max-edges", "3"]) == 1
    err = capsys.readouterr().err
    assert "warning: edge cap overridden" in err


# imports no json of its own, so that the calls' use of json shows
LOADED_AFTER_EACH = """
import ast, sys
from signedgraph.cli import run
module, calls = ast.literal_eval(sys.argv[1])
loaded = []
for verb, extra in calls:
    assert run([verb, *extra]) == 0, verb
    loaded.append(module in sys.modules)
print(loaded)
"""


def loaded_after_each(module, calls):
    """Run the calls in order in one fresh interpreter; for each, whether
    module was loaded after it."""
    cmd = [sys.executable, "-c", LOADED_AFTER_EACH, repr([module, calls])]
    r = subprocess.run(cmd, capture_output=True, env=cli_env())
    assert r.returncode == 0, r.stderr
    return ast.literal_eval(r.stdout.decode().splitlines()[-1])


def test_no_verb_loads_numpy(tmp_path):
    calls = [(verb, [*extra, *flag]) for flag in ([], ["--json"])
             for verb, extra in sorted(invocations(tmp_path).items())]
    calls += [("spectrum", [SIGMA4, "--which", "laplacian"])]
    assert loaded_after_each("numpy", calls) == [False] * len(calls)


def test_no_verb_loads_dataclasses_or_inspect(tmp_path):
    calls = [(verb, [*extra, *flag]) for flag in ([], ["--json"])
             for verb, extra in sorted(invocations(tmp_path).items())]
    for module in ("dataclasses", "inspect"):
        assert loaded_after_each(module, calls) == [False] * len(calls), module


def test_json_loads_only_for_json_output(tmp_path):
    text = sorted(invocations(tmp_path).items())
    calls = text + [("balance", [SIGMA4, "--json"])]
    assert loaded_after_each("json", calls) == [False] * len(text) + [True]


def test_line_graph_verbs_load_neither_coloring_nor_frame(tmp_path):
    inv = invocations(tmp_path)
    calls = [(verb, inv[verb]) for verb in ("linegraph", "glinegraph")]
    for module in ("signedgraph.coloring", "signedgraph.frame"):
        assert loaded_after_each(module, calls) == [False, False], module


def test_a_parser_built_for_one_verb_reads_as_the_full_one():
    full = build_parser()
    assert build_parser("no-such-verb").format_help() == full.format_help()
    subparsers = full._subparsers._group_actions[0].choices
    for verb in sorted(ALL_VERBS):
        one = build_parser(verb)
        assert list(one._subparsers._group_actions[0].choices) == [verb]
        assert one.format_usage() == full.format_usage()
        assert one._subparsers._group_actions[0].choices[verb].format_help() == subparsers[verb].format_help()


def test_oracles_load_only_when_an_oracle_is_asked_for():
    production = [
        ["charpoly", SIGMA4],
        ["regions", SIGMA4],
        ["acyclic", SIGMA4],
        ["chromatic", SIGMA4],
        ["chromatic", SIGMA4, "--zero-free"],
    ]
    calls = [(argv[0], argv[1:]) for argv in production]
    assert loaded_after_each("signedgraph.oracles", calls) == [False] * len(calls)
    for argv in (
        ["regions", SIGMA4, "--oracle"],
        ["regions", SIGMA4, "--acyclic"],
        ["chromatic", SIGMA4, "--algorithm", "subset"],
        ["chromatic", SIGMA4, "--algorithm", "expansion"],
    ):
        assert loaded_after_each("signedgraph.oracles", [(argv[0], argv[1:])]) == [True], argv


def test_a_closed_stdout_exits_1_without_a_traceback():
    read, write = os.pipe()
    os.close(read)  # as after `| head -c 50`: every write to stdout fails
    try:
        r = subprocess.run([sys.executable, "-m", "signedgraph.cli", "roots", "--name", "A", "--n", "30"],
                           stdout=write, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=30)
    finally:
        os.close(write)
    assert r.returncode == 1
    assert r.stderr == ""


def test_glinegraph_refuses_a_base_with_parallel_links(capsys):
    # sigma4's links 1-4 + and 1-4 - are a digon: the generalized line graph
    # of Cameron, Goethals, Seidel and Shult is defined on a simple base
    assert run(["glinegraph", SIGMA4, "--m", "1,0,2,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: base graph must be simple\n"


def test_glinegraph_refuses_a_base_with_a_loop_half_edge_or_loose_edge(tmp_path, capsys):
    # mixed7 and bridges13 have loops, a half edge and a loose edge: their links
    # alone are simple, but the base is all of the graph
    for name, m in (("mixed7.sg", "1,0,0,2,0,0,1"), ("bridges13.sg", "1,0,2,0,0,0,0,0,0,0,0,1,0,0")):
        assert run(["glinegraph", fixture_path(name), "--m", m]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: base graph must be simple\n", name
    cases = [(f"sg 1\nn 2\nedge a 1 2 +\n{line}\n", "1,0") for line in ("edge l 1 1 -", "half h 1", "loose z")]
    # a loose edge goes in as a loop at vertex 0: a loop, even where there is no vertex 0
    cases.append(("sg 1\nn 0\nloose z\n", "0"))
    path = tmp_path / "base.sg"
    for text, m in cases:
        path.write_text(text)
        assert run(["glinegraph", str(path), "--m", m]) == 1, text
        assert capsys.readouterr().err == "error: base graph must be simple\n", text
    path.write_text("sg 1\nn 2\nedge a 1 2 +\n")
    assert run(["glinegraph", str(path), "--m", "1,0"]) == 0


# verbs whose output is an invariant of switching isomorphism; a spectrum's
# irrational values are floats, printed to 12 digits, that Jacobi's method
# gives within about 1e-14 in any vertex order, and its integers are exact
INVARIANT_VERBS = [["chromatic"], ["chromatic", "--zero-free"], ["charpoly"], ["regions"], ["acyclic"],
                   ["matrix-tree"], ["spectrum"], ["spectrum", "--which", "laplacian"]]


def _graphs_and_scrambles():
    """(id, g, scramble of g): the fixtures, then seeded random graphs."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            out.append((name, parse(fh.read())))
    out += [(f"random{seed}", random_graph(seeded(seed))) for seed in range(40)]
    return [(name, g, scramble(g, seeded(1000 + i))[0]) for i, (name, g) in enumerate(out)]


def _stdout(argv):
    """sgtool's exit code and stdout for argv, run in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, buf.getvalue()


SCRAMBLED = _graphs_and_scrambles()


@pytest.mark.parametrize("name, g, h", SCRAMBLED, ids=[name for name, _, _ in SCRAMBLED])
def test_invariant_verbs_print_the_same_bytes_for_a_scrambled_graph(name, g, h, tmp_path):
    paths = []
    for tag, graph in (("g", g), ("h", h)):
        paths.append(tmp_path / f"{tag}.sg")
        paths[-1].write_bytes(serialize(graph))
    for verb, *options in INVARIANT_VERBS:
        for fmt in ([], ["--json"]):
            got = [_stdout([verb, str(path), *options, *fmt]) for path in paths]
            assert got[0] == got[1], (verb, options, fmt)
