"""Self-test of the benchmark: seeded inputs repeat, and every checker counts
a deliberately corrupted answer as a failed op.

    python3 -m pytest sgbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import signedgraph as sg  # noqa: E402
from signedgraph.cli import run as cli_run  # noqa: E402

import cli_desk  # noqa: E402
import exp_desk  # noqa: E402
import poly_large  # noqa: E402
import run as bench  # noqa: E402


class Corrupted:
    """An op whose run returns a wrong answer built from the real one."""

    def __init__(self, op, corrupt):
        self.op, self.corrupt, self.label = op, corrupt, op.label

    def run(self, lib):
        return self.corrupt(self.op.run(lib))

    def check(self, out):
        return self.op.check(out)


def counts_as_failed(op, corrupt):
    loop = bench.Loop()
    bench.time_op(Corrupted(op, corrupt), sg, loop)
    return loop.attempted == 1 and loop.failed == 1


def test_same_seed_same_inputs():
    assert [j.text for j in poly_large.jobs(7)] == [j.text for j in poly_large.jobs(7)]
    assert [j.text for j in poly_large.jobs(7)] != [j.text for j in poly_large.jobs(8)]
    assert exp_desk.graphs(7) == exp_desk.graphs(7)
    assert exp_desk.graphs(7) != exp_desk.graphs(8)
    a, b = cli_desk.corpus(7), cli_desk.corpus(7)
    assert a == b
    assert [i.key for i in cli_desk.invocations(7, a)] == [i.key for i in cli_desk.invocations(7, b)]
    assert cli_desk.corpus(8) != a


def test_planted_answers_match_the_union_find():
    for job in poly_large.jobs(3):
        if job.size < 2000:
            job.expected()  # raises when the planted answer disagrees


def _replace(d, key, value):
    out = dict(d)
    out[key] = value
    return out


def test_poly_large_checker_counts_corruption():
    job = next(j for j in poly_large.jobs(5) if j.small and j.shape == "cycle")
    loop = bench.Loop()
    bench.time_op(job, sg, loop)
    assert loop.failed == 0
    out = job.run(sg)
    g = out["graph"]
    part = out["partition"]
    corruptions = [
        lambda o: _replace(o, "graph", g.with_edges(g.edges[1:])),
        lambda o: _replace(o, "partition", sg.BalancePartition(part.pib[1:], part.v0 | set(part.pib[0]))),
        lambda o: _replace(o, "rank", o["rank"] + 1),
        lambda o: _replace(o, "switched", g),
        lambda o: _replace(o, "zeta", {v: -z if v == 0 else z for v, z in o["zeta"].items()}),
        lambda o: _replace(o, "contracted", (g, o["contracted"][1])),
        lambda o: _replace(o, "deleted", g),
        lambda o: _replace(o, "text", o["text"].replace(b"+", b"-", 1)),
        lambda o: _replace(o, "closure", o["closure"] | {g.edges[0].id} if g.edges[0].id not in o["closure"]
                           else o["closure"] - {g.edges[0].id}),
        lambda o: _replace(o, "balancing", {k: "total" for k in o["balancing"]}),
    ]
    for corrupt in corruptions:
        assert counts_as_failed(job, corrupt)


def _corrupt_exp(out):
    if isinstance(out, sg.IntPolynomial):
        return out + 1
    if isinstance(out, bool) or out is None:
        raise TypeError(out)
    if isinstance(out, int):
        return out + 1
    if isinstance(out, frozenset):
        return out | {"zz"}
    if isinstance(out, sg.RegionReport):
        return sg.RegionReport(out.region_count + 1, out.char_poly, out.acyclic_count, out.sign_vector_regions)
    if isinstance(out, sg.MatrixTreeReport):
        return sg.MatrixTreeReport(out.det_laplacian + 1, out.circle_counts, out.weighted_sum)
    if isinstance(out, sg.ClosedSetLattice):
        return sg.ClosedSetLattice(out.elements[1:])
    if isinstance(out, list):
        return out[1:]
    if isinstance(out, dict):
        keys = sorted(out)
        return {**out, keys[0]: out[keys[1]], keys[1]: out[keys[0]]}
    raise TypeError(type(out))


def test_exp_desk_checkers_count_corruption():
    seen = set()
    for task in exp_desk.tasks(5, sg):
        kind = task.label.split("-")[0]
        if kind in seen or task.label.startswith("delcon-pmk6"):
            continue
        seen.add(kind)
        loop = bench.Loop()
        bench.time_op(task, sg, loop)
        assert loop.failed == 0, task.label
        assert counts_as_failed(task, _corrupt_exp), task.label
    assert len(seen) >= 12


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_run(argv) == 0, argv
    return buf.getvalue().encode()


def _bump_digit(data):
    """Change the first digit after the graph-format magic line, or flip a
    boolean when there is no digit."""
    start = 4 if data.startswith(b"sg 1") else 0
    m = re.compile(rb"[0-9]").search(data, start)
    if m is None:
        return data.replace(b"false", b"true") if b"false" in data else data.replace(b"true", b"false")
    d = data[m.start()] - ord("0")
    return data[:m.start()] + str((d + 1) % 10).encode() + data[m.end():]


def test_cli_checker_counts_corruption(tmp_path):
    graphs = cli_desk.corpus(5)
    paths = cli_desk.write_corpus(graphs, str(tmp_path))
    verbs = set()
    for inv in cli_desk.invocations(5, graphs):
        out = _stdout(inv.argv(paths))
        checker = cli_desk.Checker(graphs)
        assert checker.check(inv, 0, out), inv.key
        assert checker.check(inv, 0, out), inv.key
        assert not checker.check(inv, 1, out), inv.key
        assert not bench.safe(cli_desk.Checker(graphs).check, inv, 0, _bump_digit(out)), inv.key
        # a repeat that differs from the first output fails
        assert not checker.check(inv, 0, out + b"\n"), inv.key
        verbs.add(inv.verb)
    assert len(verbs) == 21
