"""Golden stdout of the CLI verbs, in text and --json, asserted in process.

Each case runs `sgtool` through `cli.run` and compares stdout byte for byte
with `tests/golden/<case>.txt` or `<case>.json`.  After a change that is
meant to alter output, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of `tests/golden/`.
"""

import contextlib
import io
import os
import sys

import pytest

from signedgraph.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SIGMA4 = os.path.join(HERE, "fixtures", "sigma4.sg")
MIXED7 = os.path.join(HERE, "fixtures", "mixed7.sg")
CYCLE30 = os.path.join(HERE, "fixtures", "cycle30.sg")
BRIDGES13 = os.path.join(HERE, "fixtures", "bridges13.sg")
PMK6 = os.path.join(HERE, "fixtures", "pmk6.sg")
PATH29 = ",".join(f"e{i}" for i in range(1, 30))

CASES = {
    "balance-sigma4": ["balance", SIGMA4],
    "switch-sigma4": ["switch", SIGMA4, "--vertices", "1,3"],
    "contract-sigma4-a": ["contract", SIGMA4, "--edges", "a"],
    "contract-sigma4-bcf": ["contract", SIGMA4, "--edges", "b,c,f"],
    "contract-sigma4-de": ["contract", SIGMA4, "--edges", "d,e"],
    "closure-sigma4-empty": ["closure", SIGMA4],
    "closure-sigma4-ab": ["closure", SIGMA4, "--edges", "a,b"],
    "closure-sigma4-bcf": ["closure", SIGMA4, "--edges", "b,c,f"],
    "closure-sigma4-de": ["closure", SIGMA4, "--edges", "d,e"],
    "rank-sigma4": ["rank", SIGMA4],
    "rank-sigma4-ab": ["rank", SIGMA4, "--edges", "a,b"],
    "balancing-edges-sigma4": ["balancing-edges", SIGMA4],
    "charpoly-sigma4": ["charpoly", SIGMA4],
    "regions-sigma4": ["regions", SIGMA4, "--oracle", "--acyclic"],
    "chromatic-sigma4-delcon": ["chromatic", SIGMA4],
    "chromatic-sigma4-delcon-zf": ["chromatic", SIGMA4, "--zero-free"],
    "chromatic-sigma4-subset": ["chromatic", SIGMA4, "--algorithm", "subset"],
    "chromatic-sigma4-subset-zf": ["chromatic", SIGMA4, "--algorithm", "subset", "--zero-free"],
    "chromatic-sigma4-expansion": ["chromatic", SIGMA4, "--algorithm", "expansion"],
    "matrix-tree-sigma4": ["matrix-tree", SIGMA4],
    "frame-circuits-sigma4": ["frame-circuits", SIGMA4],
    "balance-mixed7": ["balance", MIXED7],
    "switch-mixed7": ["switch", MIXED7, "--vertices", "1,5"],
    "contract-mixed7-ab": ["contract", MIXED7, "--edges", "a,b"],
    "contract-mixed7-abch": ["contract", MIXED7, "--edges", "a,b,c,h"],
    "contract-mixed7-fgi": ["contract", MIXED7, "--edges", "f,g,i"],
    "closure-mixed7-empty": ["closure", MIXED7],
    "closure-mixed7-ab": ["closure", MIXED7, "--edges", "a,b"],
    "closure-mixed7-abc": ["closure", MIXED7, "--edges", "a,b,c"],
    "closure-mixed7-fg": ["closure", MIXED7, "--edges", "f,g"],
    "closure-mixed7-fgi": ["closure", MIXED7, "--edges", "f,g,i"],
    "closure-mixed7-h": ["closure", MIXED7, "--edges", "h"],
    "rank-mixed7": ["rank", MIXED7],
    "rank-mixed7-abcd": ["rank", MIXED7, "--edges", "a,b,c,d"],
    "balancing-edges-mixed7": ["balancing-edges", MIXED7],
    "charpoly-mixed7": ["charpoly", MIXED7],
    "regions-mixed7": ["regions", MIXED7, "--acyclic"],
    # +-K_6 has 30 edges, beyond the subset expansion's 20-edge cap
    "charpoly-pmk6": ["charpoly", PMK6],
    "regions-pmk6": ["regions", PMK6],
    "chromatic-mixed7-delcon": ["chromatic", MIXED7],
    "chromatic-mixed7-delcon-zf": ["chromatic", MIXED7, "--zero-free"],
    "chromatic-mixed7-subset": ["chromatic", MIXED7, "--algorithm", "subset"],
    "chromatic-mixed7-subset-zf": ["chromatic", MIXED7, "--algorithm", "subset", "--zero-free"],
    "chromatic-mixed7-expansion": ["chromatic", MIXED7, "--algorithm", "expansion"],
    "matrix-tree-mixed7": ["matrix-tree", MIXED7],
    "frame-circuits-mixed7": ["frame-circuits", MIXED7],
    "balance-cycle30": ["balance", CYCLE30],
    "switch-cycle30": ["switch", CYCLE30, "--vertices", "2,3"],
    "balancing-edges-cycle30": ["balancing-edges", CYCLE30],
    "balancing-edges-bridges13": ["balancing-edges", BRIDGES13],
    "contract-cycle30-path29": ["contract", CYCLE30, "--edges", PATH29],
    "rank-cycle30-path29": ["rank", CYCLE30, "--edges", PATH29],
    "closure-cycle30-path29": ["closure", CYCLE30, "--edges", PATH29],
    "info-sigma4": ["info", SIGMA4],
    "info-mixed7": ["info", MIXED7],
    "delete-sigma4-de": ["delete", SIGMA4, "--edges", "d,e"],
    "delete-mixed7-fhz": ["delete", MIXED7, "--edges", "f,h,z"],
    "matrix-sigma4-incidence": ["matrix", SIGMA4],
    "matrix-sigma4-adjacency": ["matrix", SIGMA4, "--which", "adjacency"],
    "matrix-sigma4-laplacian": ["matrix", SIGMA4, "--which", "laplacian"],
    "matrix-sigma4-degree": ["matrix", SIGMA4, "--which", "degree"],
    "matrix-mixed7-incidence": ["matrix", MIXED7],
    "matrix-mixed7-laplacian": ["matrix", MIXED7, "--which", "laplacian"],
    # Jacobi's irrational values print to 12 digits, its integer values exactly
    "spectrum-sigma4-adjacency": ["spectrum", SIGMA4],
    "spectrum-sigma4-laplacian": ["spectrum", SIGMA4, "--which", "laplacian"],
    "spectrum-cycle30-adjacency": ["spectrum", CYCLE30],
    "acyclic-sigma4": ["acyclic", SIGMA4],
    "acyclic-mixed7": ["acyclic", MIXED7],
    "catalog-sigma4-full": ["catalog", SIGMA4, "--family", "full"],
    "catalog-sigma4-fullloops": ["catalog", SIGMA4, "--family", "fullloops"],
    "catalog-mixed7-allpositive": ["catalog", MIXED7, "--family", "allpositive"],
    "catalog-mixed7-allpositivefull": ["catalog", MIXED7, "--family", "allpositivefull"],
    "catalog-mixed7-allnegative": ["catalog", MIXED7, "--family", "allnegative"],
    "catalog-mixed7-signedexpansion": ["catalog", MIXED7, "--family", "signedexpansion"],
    "catalog-mixed7-signedexpansionfull": ["catalog", MIXED7, "--family", "signedexpansionfull"],
    "catalog-pmkn-3": ["catalog", "--family", "pmkn", "--n", "3"],
    "catalog-pmknfull-3": ["catalog", "--family", "pmknfull", "--n", "3"],
    "linegraph-cycle30": ["linegraph", CYCLE30],
    "linegraph-cycle30-reduced": ["linegraph", CYCLE30, "--reduced"],
    # a simple base: sigma4's +- digon 1-4 is refused, and so are the loops,
    # half edges and loose edges of mixed7 and bridges13 (see test_cli.py)
    "glinegraph-cycle30": ["glinegraph", CYCLE30, "--m", ",".join(["1", "0", "2"] + ["0"] * 8 + ["1"] + ["0"] * 18)],
    "roots-A-3": ["roots", "--name", "A", "--n", "3"],
    "roots-B-3": ["roots", "--name", "B", "--n", "3"],
    "roots-C-3": ["roots", "--name", "C", "--n", "3"],
    "roots-D-4": ["roots", "--name", "D", "--n", "4"],
    "roots-E8": ["roots", "--name", "E8"],
    "gramian-cycle30-nu1": ["gramian", CYCLE30, "--nu", "1"],
    "gramian-cycle30-nu1-anti": ["gramian", CYCLE30, "--nu", "1", "--anti"],
    "gramian-cycle30-nu2": ["gramian", CYCLE30, "--nu", "2"],
    "gramian-cycle30-nu3-anti": ["gramian", CYCLE30, "--nu", "3", "--anti"],
}

FORMATS = {"txt": [], "json": ["--json"]}


def golden_path(case, fmt):
    return os.path.join(GOLDEN, f"{case}.{fmt}")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case, fmt, capsys):
    assert run([*CASES[case], *FORMATS[fmt]]) == 0
    out = capsys.readouterr().out
    with open(golden_path(case, fmt), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


def regenerate():
    """Rewrite every golden file from the current code; report failures."""
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        for fmt, extra in sorted(FORMATS.items()):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()) as err:
                code = run([*CASES[case], *extra])
            if code != 0:
                print(f"{case}.{fmt}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
                continue
            with open(golden_path(case, fmt), "w", encoding="utf-8", newline="") as fh:
                fh.write(buf.getvalue())


if __name__ == "__main__":
    regenerate()
