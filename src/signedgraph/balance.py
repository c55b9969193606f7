"""Balance testing, switching, Harary bipartitions, and balancing sets.

Balance is decided by the linear-time switching algorithm: one BFS of the
links gives the switching potential zeta that makes the tree all positive
(`core._potential`), and a component is balanced iff every link and loop is
positive after switching by zeta and it carries no half edge.  The same
potential gives the Harary bipartition and switching equivalence; the
exponential circle-sign check lives only in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    Edge,
    EdgeKind,
    SgError,
    SignedGraph,
    _potential,
    delete_vertices,
    enumerate_circles,
    edge_set_sign,
)

DEFAULT_BALANCING_CAP = 20


@dataclass(frozen=True)
class BalancePartition:
    """pi_b: vertex sets of balanced components; v0: vertices of unbalanced ones."""

    pib: tuple  # tuple of sorted vertex tuples
    v0: frozenset

    @property
    def b(self):
        return len(self.pib)


def balance_partition(g: SignedGraph, s=None) -> BalancePartition:
    """Classify each component of (V, s) as balanced or not, from the
    switching potential of s.  Isolated vertices are balanced components."""
    _, root, unbalanced = _potential(g, s)
    comps = {}
    for v in range(g.n):
        comps.setdefault(root[v], []).append(v)
    pib = tuple(tuple(vs) for r, vs in comps.items() if r not in unbalanced)
    v0 = frozenset(v for v in range(g.n) if root[v] in unbalanced)
    return BalancePartition(pib, v0)


def is_balanced(g: SignedGraph, s=None) -> bool:
    return not balance_partition(g, s).v0


def harary_bipartition(g: SignedGraph):
    """If balanced: {V1, V2} with negative edges exactly crossing, the part
    containing vertex 0 first (vertex 0 is a root, so zeta(0) = +1).  If
    unbalanced: None."""
    zeta, _, unbalanced = _potential(g)
    if unbalanced:
        return None
    v1 = frozenset(v for v in range(g.n) if zeta[v] == 1)
    return (v1, frozenset(range(g.n)) - v1)


def switch(g: SignedGraph, zeta) -> SignedGraph:
    """Switch by zeta: V -> {+1,-1}; half and loose edges are unchanged."""

    def z(v):
        val = zeta(v) if callable(zeta) else zeta[v]
        if val not in (1, -1):
            raise SgError(f"switching value at vertex {v} must be +1 or -1")
        return val

    edges = []
    for e in g.edges:
        if e.is_ordinary:
            u, v = e.ends
            edges.append(
                type(e)(e.id, e.kind, e.ends, z(u) * e.sign * z(v))
            )
        else:
            edges.append(e)
    return g.with_edges(edges)


def switch_set(g: SignedGraph, x) -> SignedGraph:
    """Switch the vertex set x (negate signs across the cut E(x, x^c))."""
    x = frozenset(x)
    return switch(g, {v: (-1 if v in x else 1) for v in range(g.n)})


def _same_underlying(g1: SignedGraph, g2: SignedGraph) -> bool:
    if g1.n != g2.n or g1.edge_ids != g2.edge_ids:
        return False
    for e in g1.edges:
        f = g2.edge(e.id)
        if e.kind is not f.kind or sorted(e.ends) != sorted(f.ends):
            return False
    return True


def switching_equivalent(g1: SignedGraph, g2: SignedGraph):
    """A switching function zeta with g1^zeta == g2, or None.

    zeta is the switching potential of the common underlying graph signed
    by sigma1(e) sigma2(e), verified against every edge.
    """
    if not _same_underlying(g1, g2):
        raise SgError("graphs have different underlying graphs")
    product = g1.with_edges(
        Edge(e.id, e.kind, e.ends, e.sign * g2.edge(e.id).sign) if e.is_ordinary else e
        for e in g1.edges
    )
    zeta = dict(enumerate(_potential(product)[0]))
    if switch(g1, zeta).edges == g2.edges:
        return zeta
    return None


def classify_balancing_edges(g: SignedGraph):
    """Map each edge to 'none', 'partial', or 'total' (definitional recomputation)."""
    base = balance_partition(g)
    out = {}
    for e in g.edges:
        rest = g.edge_ids - {e.id}
        part = balance_partition(g, rest)
        if not base.v0 and not part.v0:
            out[e.id] = "none"
        elif not part.v0:
            out[e.id] = "total"
        elif part.b > base.b:
            out[e.id] = "partial"
        else:
            out[e.id] = "none"
    return out


def balancing_vertices(g: SignedGraph) -> frozenset:
    """Vertices v with g - v balanced although g is unbalanced."""
    if is_balanced(g):
        return frozenset()
    return frozenset(v for v in range(g.n) if is_balanced(delete_vertices(g, [v])))


def min_balancing_set(g: SignedGraph, cap=DEFAULT_BALANCING_CAP) -> frozenset:
    """Minimum total balancing set by exhaustive search in increasing size,
    ties broken lexicographically by edge id.  NP-hard in general; desk scale."""
    ids = sorted(g.edge_ids)
    if len(ids) > cap:
        raise SgError(f"balancing-set cap exceeded ({len(ids)} > {cap})")
    all_ids = g.edge_ids
    for size in range(len(ids) + 1):
        for combo in combinations(ids, size):
            if is_balanced(g, all_ids - frozenset(combo)):
                return frozenset(combo)
    raise AssertionError("unreachable: deleting all edges always balances")


def negative_circle_vertex_sets(g: SignedGraph, cap=20):
    """Vertex sets of all negative circles, counting half edges and negative
    loops as negative circles (the handcuff convention)."""
    out = []
    for c in enumerate_circles(g, cap=cap):
        if edge_set_sign(g, c) == -1:
            verts = frozenset(v for eid in c for v in g.edge(eid).ends)
            out.append((c, verts))
    for e in g.edges:
        if e.kind is EdgeKind.HALF:
            out.append((frozenset([e.id]), frozenset(e.ends)))
    return out


def has_two_disjoint_negative_circles(g: SignedGraph, cap=20) -> bool:
    circles = negative_circle_vertex_sets(g, cap=cap)
    for i, (_, vs1) in enumerate(circles):
        for _, vs2 in circles[i + 1 :]:
            if not vs1 & vs2:
                return True
    return False


def blocks(g: SignedGraph):
    """Blocks as edge sets (plus isolated vertices as ({v}, empty)).

    Loops and half edges are single-edge blocks at their vertex; loose edges
    belong to no block.  Links are grouped by the standard cut-vertex DFS.
    """
    adj = {}
    for e in g.edges:
        if e.kind is EdgeKind.LINK:
            u, v = e.ends
            adj.setdefault(u, []).append((e.id, v))
            adj.setdefault(v, []).append((e.id, u))

    out = []
    for e in g.edges:
        if e.kind in (EdgeKind.LOOP, EdgeKind.HALF):
            out.append((frozenset(e.ends), frozenset([e.id])))

    disc = {}
    low = {}
    stack = []
    counter = [0]

    def dfs(v, parent_edge):
        disc[v] = low[v] = counter[0]
        counter[0] += 1
        for eid, w in adj.get(v, ()):
            if eid == parent_edge:
                continue
            if w not in disc:
                stack.append(eid)
                dfs(w, eid)
                low[v] = min(low[v], low[w])
                if low[w] >= disc[v]:
                    block = set()
                    while True:
                        top = stack.pop()
                        block.add(top)
                        if top == eid:
                            break
                    verts = frozenset(x for b in block for x in g.edge(b).ends)
                    out.append((verts, frozenset(block)))
            elif disc[w] < disc[v]:
                stack.append(eid)
                low[v] = min(low[v], disc[w])

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10 * g.n + 100))
    try:
        for v in range(g.n):
            if v not in disc:
                dfs(v, None)
                if not adj.get(v):
                    if not any(v in vs for vs, _ in out):
                        out.append((frozenset([v]), frozenset()))
    finally:
        sys.setrecursionlimit(old)
    return out
