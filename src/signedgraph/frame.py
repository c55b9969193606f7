"""Frame circuits, balance-closure and closure, closed-set lattice, rank.

Half edges are treated exactly as negative loops throughout: a "negative
circle" in a handcuff may be a half edge.  Rank and closure come from the
switching potential of S (`core._potential`), so both are linear in n + m
and need no circle cap.  Their definitional circle- and circuit-based
cross-checks, `balance_closure` and `closure_by_circuits`, are in `oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    EdgeKind,
    SgError,
    SignedGraph,
    _link_adjacency,
    _potential,
    edge_set_sign,
    enumerate_circles,
)
from .balance import balance_partition, negative_circle_vertex_sets


@dataclass(frozen=True)
class FrameCircuit:
    """A positive circle, loose edge, or tight/loose handcuff.

    circles holds the one or two constituent circles (a half edge counts as a
    negative circle); path is the connecting edge set, empty for tight."""

    kind: str  # "positive_circle" | "loose_edge" | "tight_handcuff" | "loose_handcuff"
    circles: tuple
    path: frozenset = frozenset()

    @property
    def edge_set(self):
        out = set(self.path)
        for c in self.circles:
            out |= c
        return frozenset(out)


def _connecting_paths(g: SignedGraph, vs1, vs2, forbidden_edges):
    """All minimal paths from vs1 to vs2, internally avoiding both vertex
    sets, using edges outside forbidden_edges.  Yields (edge set, endpoints)."""
    adj = _link_adjacency(g.n, (e for e in g.edges if e.id not in forbidden_edges))
    paths = []

    def dfs(v, used_edges, used_verts):
        for e, w in adj[v]:
            if e.id in used_edges:
                continue
            if w in vs2:
                paths.append(frozenset(used_edges | {e.id}))
            elif w not in used_verts and w not in vs1 and w not in vs2:
                dfs(w, used_edges | {e.id}, used_verts | {w})

    for start in sorted(vs1):
        dfs(start, set(), {start})
    return paths


def enumerate_frame_circuits(g: SignedGraph, n_cap=10, edge_cap=20):
    """All frame circuits, each once, canonically ordered by edge set."""
    if g.n > n_cap or len(g.edges) > edge_cap:
        raise SgError("frame-circuit enumeration cap exceeded")

    found = {}

    for c in enumerate_circles(g, cap=edge_cap):
        if edge_set_sign(g, c) == 1:
            fc = FrameCircuit("positive_circle", (c,))
            found[fc.edge_set] = fc
    for e in g.edges:
        if e.kind is EdgeKind.LOOSE:
            fc = FrameCircuit("loose_edge", (frozenset([e.id]),))
            found[fc.edge_set] = fc

    negs = negative_circle_vertex_sets(g, cap=edge_cap)
    for (c1, vs1), (c2, vs2) in combinations(negs, 2):
        if c1 & c2:
            continue
        shared = vs1 & vs2
        if len(shared) == 1:
            fc = FrameCircuit("tight_handcuff", (c1, c2))
            found.setdefault(fc.edge_set, fc)
        elif not shared:
            for path in _connecting_paths(g, vs1, vs2, c1 | c2):
                fc = FrameCircuit("loose_handcuff", (c1, c2), path)
                found.setdefault(fc.edge_set, fc)

    return [found[k] for k in sorted(found, key=lambda s: tuple(sorted(s)))]


def is_frame_circuit(g: SignedGraph, s):
    """Classify s if it is a frame circuit, else None."""
    s = frozenset(s)
    sub = g.with_edges(g.restricted(s))
    for fc in enumerate_frame_circuits(sub, n_cap=sub.n, edge_cap=len(s)):
        if fc.edge_set == s:
            return fc
    return None


def closure(g: SignedGraph, s) -> frozenset:
    """clos(S): loose edges, every edge with all its ends in V0(S), and every
    link or loop inside one balanced component of S that is positive after
    switching by the potential of S (that is, bcl of the component)."""
    zeta, root, unbalanced = _potential(g, s)
    out = set()
    for e in g.edges:
        if not e.ends or all(root[v] in unbalanced for v in e.ends):
            out.add(e.id)
        elif e.is_ordinary:
            u, v = e.ends
            if root[u] == root[v] and zeta[u] * e.sign * zeta[v] == 1:
                out.add(e.id)
    return frozenset(out)


@dataclass(frozen=True)
class ClosedSetLattice:
    """All closed edge sets of a graph, ordered by inclusion."""

    elements: tuple  # frozensets, sorted canonically

    def __len__(self):
        return len(self.elements)

    def leq(self, a, b):
        return self.elements[a] <= self.elements[b]


def closed_sets(g: SignedGraph, cap=16) -> ClosedSetLattice:
    ids = sorted(g.edge_ids)
    if len(ids) > cap:
        raise SgError(f"closed-set cap exceeded ({len(ids)} > {cap})")
    closed = []
    for mask in range(1 << len(ids)):
        s = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        if closure(g, s) == s:
            closed.append(s)
    closed.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return ClosedSetLattice(tuple(closed))


def rank(g: SignedGraph, s=None) -> int:
    """rk S = n - b(S)."""
    return g.n - balance_partition(g, s).b


def is_independent(g: SignedGraph, s) -> bool:
    """True iff rank(S) = |S| (iff S contains no frame circuit)."""
    s = frozenset(s)
    return rank(g, s) == len(s)
