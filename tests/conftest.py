import os
import random

import pytest

from signedgraph import (
    EdgeKind,
    SignedGraph,
    edge_set_sign,
    enumerate_circles,
    half,
    link,
    loop,
    loose,
    parse,
)

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
    for c in enumerate_circles(g, ids, cap=len(ids) + 1):
        if edge_set_sign(g, c) == -1:
            return False
    return True


def seeded(seed):
    return random.Random(seed)
