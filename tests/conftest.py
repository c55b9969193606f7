import os
import random

import pytest

from signedgraph import (
    Edge,
    EdgeKind,
    SignedGraph,
    edge_set_sign,
    half,
    link,
    loop,
    loose,
    parse,
)
from signedgraph.core import _relabel, _signed_circles

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env():
    """Environment for `python -m signedgraph.cli` subprocesses: a random
    hash seed, and this checkout's src/ first on the import path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONHASHSEED="random", PYTHONPATH=path)


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def sigma4():
    with open(fixture_path("sigma4.sg"), "rb") as fh:
        return parse(fh.read())


def random_graph(rng, n_max=7, m_max=12, kinds="all"):
    """Seeded random signed graph; kinds: 'all' | 'links' | 'simple'."""
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = []
    for i in range(m):
        eid = f"e{i}"
        if kinds == "links" or kinds == "simple":
            if n < 2:
                continue
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            s = rng.choice([1, -1])
            if kinds == "simple" and any(
                sorted(e.ends) == sorted((u, v)) for e in edges
            ):
                continue
            edges.append(link(eid, u, v, s))
            continue
        roll = rng.random()
        if roll < 0.70 and n >= 2:
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            edges.append(link(eid, u, v, rng.choice([1, -1])))
        elif roll < 0.82:
            edges.append(loop(eid, rng.randrange(n), rng.choice([1, -1])))
        elif roll < 0.94:
            edges.append(half(eid, rng.randrange(n)))
        else:
            edges.append(loose(eid))
    return SignedGraph(n, edges)


def balance_oracle(g, s=None):
    """Definitional balance: no half edges in s and all circles positive.

    Exponential; test-suite ground truth only."""
    ids = g.edge_ids if s is None else frozenset(s)
    if any(g.edge(e).kind is EdgeKind.HALF for e in ids):
        return False
    for c, _, _ in _signed_circles(g.n, g.restricted(ids)):
        if edge_set_sign(g, c) == -1:
            return False
    return True


def delete_vertices(g, w):
    """Remove the vertices of w and every edge with an endpoint in w; the
    remaining vertices are renumbered in order."""
    w = frozenset(w)
    keep = [v for v in range(g.n) if v not in w]
    relabel = {v: i for i, v in enumerate(keep)}
    return _relabel(len(keep), (e for e in g.edges if w.isdisjoint(e.ends)), relabel, [1] * g.n)


def seeded(seed):
    return random.Random(seed)


def scramble(g, rng):
    """g with its vertices relabelled, its edges shuffled and renamed, each
    link's ends in a random order, and a random vertex set switched, built by
    the public constructors; returned with the map old id -> new id.  Every
    invariant of switching isomorphism takes the same value on both."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    zeta = [rng.choice((1, -1)) for _ in range(g.n)]
    names = [f"x{i}" for i in range(len(g.edges))]
    rng.shuffle(names)
    rename = {e.id: name for e, name in zip(g.edges, names)}
    edges = []
    for e in rng.sample(g.edges, len(g.edges)):
        ends, sign = tuple(perm[v] for v in e.ends), e.sign
        if e.kind is EdgeKind.LINK:
            sign *= zeta[e.ends[0]] * zeta[e.ends[1]]
            if rng.random() < 0.5:
                ends = ends[::-1]
        edges.append(Edge(rename[e.id], e.kind, ends, sign))
    return SignedGraph(g.n, edges), rename
