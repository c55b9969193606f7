"""Seeded input generator for the signedgraph benchmark.

Graphs are plain tuples, independent of the library: ``Graph(n, edges)`` with
each edge ``(id, kind, ends, sign)``, kind one of ``link``, ``loop``, ``half``,
``loose``, ends 0-based and sign ``+1``/``-1`` (``None`` for half and loose
edges).  ``text()`` writes the ``sg 1`` format itself, so that the library's
``parse`` is checked against a writer it does not share.

Balance is planted: links get the sign zeta(u) * zeta(v) of a hidden switching
function zeta, and chosen components are then made unbalanced (a flipped
circle edge, a half edge, a negative loop or an extra link of the wrong sign).
The planted answer travels with the graph and is checked against the
union-find reference in ``ref.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # (id, kind, ends, sign)
    # planted answer: frozenset of balanced component vertex sets, and V0
    balanced: frozenset = field(default=None, compare=False)
    v0: frozenset = field(default=None, compare=False)

    @property
    def m(self):
        return len(self.edges)

    def ids(self):
        return [e[0] for e in self.edges]

    def text(self):
        out = ["sg 1", f"n {self.n}"]
        for eid, kind, ends, sign in self.edges:
            if kind in ("link", "loop"):
                out.append(f"edge {eid} {ends[0] + 1} {ends[1] + 1} {'+' if sign > 0 else '-'}")
            elif kind == "half":
                out.append(f"half {eid} {ends[0] + 1}")
            else:
                out.append(f"loose {eid}")
        return "\n".join(out) + "\n"


def _finish(rng, n, raw, zeta, unbalanced_roots, comps):
    """Relabel vertices and shuffle edges; raw edges are (kind, ends, flip)
    where flip = -1 marks the edge that breaks balance.  Vertex 0 keeps the
    lowest label of its component: the library's BFS starts there, and a
    path rooted at its end, not its middle, makes the depth (and the seed's
    quadratic cost) the same for every seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    low = min(comps[0], key=lambda v: perm[v])
    perm[0], perm[low] = perm[low], perm[0]
    raw = list(raw)
    rng.shuffle(raw)
    edges = []
    for i, (kind, ends, flip) in enumerate(raw):
        eid = f"e{i + 1}"
        new_ends = tuple(perm[v] for v in ends)
        sign = None
        if kind in ("link", "loop"):
            sign = zeta[ends[0]] * zeta[ends[1]] * flip
        edges.append((eid, kind, new_ends, sign))
    bal = frozenset(
        frozenset(perm[v] for v in c) for c in comps if c[0] not in unbalanced_roots
    )
    v0 = frozenset(perm[v] for c in comps if c[0] in unbalanced_roots for v in c)
    return Graph(n, tuple(edges), bal, v0)


def _main_component(shape, k, rng):
    """Links of the main component on vertices 0..k-1 and its unbalancing edge."""
    if shape == "cycle":
        links = [(i, (i + 1) % k) for i in range(k)]
        breaker = ("flip", 0)
    elif shape == "path":
        links = [(i, i + 1) for i in range(k - 1)]
        breaker = ("half", k // 2)
    elif shape == "ladder":
        h = k // 2
        links = [(i, i + 1) for i in range(h - 1)]
        links += [(h + i, h + i + 1) for i in range(k - h - 1)]
        links += [(i, h + i) for i in range(h)]
        breaker = ("negloop", k - 1)
    elif shape == "random":
        # m ~ 3k: a random spanning tree plus 2k random chords keeps it
        # connected and shallow (BFS depth O(log k))
        links = [(i, rng.randrange(i)) for i in range(1, k)]
        while len(links) < 3 * k:
            u, v = rng.randrange(k), rng.randrange(k)
            if u != v:
                links.append((u, v))
        breaker = ("extra", None)
    else:
        raise ValueError(shape)
    return links, breaker


def large_graph(shape, k, rng, main_balanced, structure_rng):
    """One large graph: a main component of k vertices in the given shape,
    one balanced triangle with a positive loop, one unbalanced triangle, an
    isolated vertex and a loose edge.  structure_rng draws the random shape's
    links; rng draws everything else (signs, labels, edge order)."""
    n = k + 7
    zeta = [rng.choice((1, -1)) for _ in range(n)]
    links, (breaker, at) = _main_component(shape, k, structure_rng)
    raw = [("link", e, 1) for e in links]
    unbalanced = set()
    if not main_balanced:
        unbalanced.add(0)
        if breaker == "flip":
            raw[at] = ("link", links[at], -1)
        elif breaker == "half":
            raw.append(("half", (at,), 1))
        elif breaker == "negloop":
            # a loop's sign is zeta(v)^2 * flip = flip
            raw.append(("loop", (at, at), -1))
        else:
            u, v = links[0]
            w = next(x for x in range(k) if x not in (u, v))
            # u-v and v-w are joined through the tree, so u-w closes a circle;
            # give it the sign that makes that circle negative
            raw.append(("link", (u, w), -1))
    a, b = k, k + 3
    raw += [("link", (a, a + 1), 1), ("link", (a + 1, a + 2), 1), ("link", (a, a + 2), 1)]
    raw.append(("loop", (a + 1, a + 1), 1))
    raw += [("link", (b, b + 1), 1), ("link", (b + 1, b + 2), 1), ("link", (b, b + 2), -1)]
    raw.append(("loose", (), 1))
    unbalanced.add(b)
    comps = [tuple(range(k)), (a, a + 1, a + 2), (b, b + 1, b + 2), (k + 6,)]
    return _finish(rng, n, raw, zeta, unbalanced, comps)


def desk_graph(rng, n, links, neg_loops=0, pos_loops=0, halves=0, looses=0, simple=False):
    """A random desk graph with exactly the given number of edges of each
    kind, in random order; link signs are uniform (no planted answer)."""
    raw = []
    pairs = set()
    while len(raw) < links:
        u, v = rng.sample(range(n), 2)
        if simple and (min(u, v), max(u, v)) in pairs:
            continue
        pairs.add((min(u, v), max(u, v)))
        raw.append(("link", (u, v), rng.choice((1, -1))))
    for sign, count in ((-1, neg_loops), (1, pos_loops)):
        for _ in range(count):
            v = rng.randrange(n)
            raw.append(("loop", (v, v), sign))
    raw += [("half", (rng.randrange(n),), None) for _ in range(halves)]
    raw += [("loose", (), None) for _ in range(looses)]
    rng.shuffle(raw)
    return Graph(n, tuple((f"e{i + 1}", k, ends, sign) for i, (k, ends, sign) in enumerate(raw)))


def switched(g, rng):
    """g with its links switched by a random switching function: an input
    with the same answers (balance, chromatic polynomials, frustration) as
    g.  Vertex labels, edge order and ids are kept: deletion-contraction
    picks edges in that order and memoizes on labelled subgraphs, and its
    cost varied two-fold between relabelled copies, against five per cent
    between switched ones."""
    zeta = [rng.choice((1, -1)) for _ in range(g.n)]
    out = []
    for eid, kind, ends, sign in g.edges:
        if kind == "link":
            sign = zeta[ends[0]] * sign * zeta[ends[1]]
        out.append((eid, kind, ends, sign))
    return Graph(g.n, tuple(out))


def pm_kn(n, full=False):
    """The complete signed expansion +-K_n (ids p<i>, m<i>), with a half edge
    f<v> at every vertex when full."""
    edges = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            i += 1
            edges.append((f"p{i}", "link", (u, v), 1))
            edges.append((f"m{i}", "link", (u, v), -1))
    if full:
        edges += [(f"f{v + 1}", "half", (v,), None) for v in range(n)]
    return Graph(n, tuple(edges))


def subset(rng, items, lo, hi):
    """A random subset of size in [lo, hi], kept in the given order."""
    k = rng.randint(lo, min(hi, len(items)))
    chosen = set(rng.sample(list(items), k))
    return [x for x in items if x in chosen]


def rng_for(seed, *tag):
    """An independent stream per (seed, tag) so adding an input to one list
    does not shift every other input."""
    return random.Random(f"{seed}:" + ":".join(map(str, tag)))
