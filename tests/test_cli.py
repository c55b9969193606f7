import json
import subprocess
import sys

import pytest

from signedgraph.cli import build_parser, run
from conftest import cli_env, fixture_path

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


def test_edge_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SGTOOL_MAX_EDGES", "3")
    assert run(["info", SIGMA4]) == 1
    monkeypatch.setenv("SGTOOL_MAX_EDGES", "10")
    assert run(["info", SIGMA4]) == 0
    monkeypatch.setenv("SGTOOL_MAX_EDGES", "x")
    assert run(["info", SIGMA4]) == 1
    assert "SGTOOL_MAX_EDGES" in capsys.readouterr().err
    monkeypatch.delenv("SGTOOL_MAX_EDGES")
    assert run(["info", SIGMA4, "--max-edges", "3"]) == 1
    err = capsys.readouterr().err
    assert "warning: edge cap overridden" in err


def run_subprocess(argv, threads=None):
    cmd = [sys.executable, "-m", "signedgraph.cli", *argv]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    return subprocess.run(cmd, capture_output=True, env=cli_env())


def test_byte_identical_across_runs_and_threads(tmp_path):
    inv = invocations(tmp_path)
    for verb, extra in sorted(inv.items()):
        for json_flag in ([], ["--json"]):
            argv = [verb, *extra, *json_flag]
            r1 = run_subprocess(argv, threads=1)
            r2 = run_subprocess(argv, threads=1)
            r4 = run_subprocess(argv, threads=4)
            assert r1.returncode == r2.returncode == r4.returncode == 0, (verb, r1.stderr)
            assert r1.stdout == r2.stdout == r4.stdout, verb


LOADED_AFTER_EACH = """
import json, sys
from signedgraph.cli import run
module, calls = json.loads(sys.argv[1])
loaded = []
for verb, extra in calls:
    assert run([verb, *extra]) == 0, verb
    loaded.append(module in sys.modules)
print(json.dumps(loaded))
"""


def loaded_after_each(module, calls):
    """Run the calls in order in one fresh interpreter; for each, whether
    module was loaded after it."""
    cmd = [sys.executable, "-c", LOADED_AFTER_EACH, json.dumps([module, calls])]
    r = subprocess.run(cmd, capture_output=True, env=cli_env())
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def numpy_after_each(calls):
    return dict(zip((verb for verb, _ in calls), loaded_after_each("numpy", calls)))


def test_numpy_loads_only_for_spectrum_and_gramian(tmp_path):
    inv = invocations(tmp_path)
    spectral = ("spectrum", "gramian")
    plain = sorted((verb, extra) for verb, extra in inv.items() if verb not in spectral)
    loaded = numpy_after_each(plain + [("spectrum", inv["spectrum"])])
    assert loaded == {verb: False for verb, _ in plain} | {"spectrum": True}
    assert numpy_after_each([("gramian", inv["gramian"])]) == {"gramian": True}


def test_oracles_load_only_when_an_oracle_is_asked_for():
    production = [
        ["charpoly", SIGMA4],
        ["regions", SIGMA4, "--acyclic"],
        ["chromatic", SIGMA4],
        ["chromatic", SIGMA4, "--zero-free"],
    ]
    calls = [(argv[0], argv[1:]) for argv in production]
    assert loaded_after_each("signedgraph.oracles", calls) == [False] * len(calls)
    for argv in (
        ["regions", SIGMA4, "--oracle"],
        ["chromatic", SIGMA4, "--algorithm", "subset"],
        ["chromatic", SIGMA4, "--algorithm", "expansion"],
    ):
        assert loaded_after_each("signedgraph.oracles", [(argv[0], argv[1:])]) == [True], argv
