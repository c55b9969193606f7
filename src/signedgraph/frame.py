"""Frame circuits, balance-closure and closure, closed-set lattice, rank.

Half edges are treated exactly as negative loops throughout: a "negative
circle" in a handcuff may be a half edge.  Rank and closure come from the
switching potential of S (`core._potential`), so both are linear in n + m
and need no circle cap.  Their definitional circle- and circuit-based
cross-checks, `balance_closure` and `closure_by_circuits`, are in `oracles`.
The closed-set lattice is a depth-first walk over edge subsets on core's
undoable union-find: O(log n) per edge added or tested, no closure rebuilt
per subset, and no branch entered that cannot end in a closed set.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter

from .core import (
    CAPS, SignedGraph, _LOOSE, _Record, _UndoableUnionFind, _cap, _frame_edge, _ids, _link_adjacency,
    _negative_circles, _potential, _signed_circles,
)


class FrameCircuit(_Record):
    """A positive circle, loose edge, or tight/loose handcuff.

    circles holds the one or two constituent circles (a half edge counts as a
    negative circle); path is the connecting edge set, empty for tight."""

    # kind: "positive_circle" | "loose_edge" | "tight_handcuff" | "loose_handcuff"
    __slots__ = ("kind", "circles", "path")
    _defaults = {"path": frozenset()}

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


def enumerate_frame_circuits(g: SignedGraph, n_cap=CAPS["frame-circuit enumeration"][0],
                             edge_cap=CAPS["frame-circuit edge"][0]):
    """All frame circuits, each once, canonically ordered by edge set."""
    _cap("frame-circuit enumeration", g.n, n_cap)
    _cap("frame-circuit edge", len(g.edges), edge_cap)
    return _frame_circuits(g)


def _frame_circuits(g: SignedGraph):
    """`enumerate_frame_circuits` without its caps, for the callers that lift them."""
    circles = list(_signed_circles(g.n, g.edges))
    found = {c: FrameCircuit("positive_circle", (c,)) for c, _, sign in circles if sign == 1}
    for e in g.edges:
        if e.kind is _LOOSE:
            fc = FrameCircuit("loose_edge", (frozenset([e.id]),))
            found[fc.edge_set] = fc

    negs = _negative_circles(g.edges, circles)
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
    """Classify s if it is a frame circuit, else None.  s is one iff it is
    minimal dependent: rank(s) = rank(s - e) = |s| - 1 for every e in s; only
    then are the frame circuits of s enumerated, and s is the only one."""
    s = _ids(s)
    if any(rank(g, t) != len(s) - 1 for t in [s, *(s - {e} for e in s)]):
        return None
    return _frame_circuits(g.with_edges(g.restricted(s)))[0]


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


class ClosedSetLattice(_Record):
    """All closed edge sets of a graph, ordered by inclusion."""

    __slots__ = ("elements",)  # frozensets, sorted canonically

    def __len__(self):
        return len(self.elements)


def closed_sets(g: SignedGraph) -> ClosedSetLattice:
    """Every S with clos(S) = S, by size and then by sorted id tuple.

    A depth-first include/exclude walk over the id-sorted edges grows S on
    one undoable union-find.  S is closed iff no excluded edge lies in
    clos(S), that is iff adding any excluded edge raises the rank.  Closure
    is monotone and changes only when an added edge raises the rank, so an
    edge may be excluded only if it raises the rank then, and the excluded
    edges are tested again after each such edge.  Each step costs O(log n)
    per edge tested, and every branch entered ends in a closed set: the
    closure of its S, so the walk visits at most m + 1 nodes per closed set."""
    edges = sorted(g.edges, key=attrgetter("id"))
    _cap("closed-set", len(edges))
    frame = [_frame_edge(e) for e in edges]
    uf = _UndoableUnionFind(g.n)
    add, undo = uf.add, uf.undo
    m = len(edges)
    chosen, excluded, closed = [], [], []

    def outside_closure(f):
        grew = add(f)
        undo()
        return grew

    def walk(i):
        if i == m:
            closed.append(frozenset(chosen))
            return
        f = frame[i]
        grew = add(f)  # if not, f is in clos(S): no closed set here leaves f out
        if not grew or all(map(outside_closure, excluded)):  # a grown clos(S) must miss them
            chosen.append(edges[i].id)
            walk(i + 1)
            chosen.pop()
        undo()
        if grew:
            excluded.append(f)
            walk(i + 1)
            excluded.pop()

    walk(0)
    closed.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return ClosedSetLattice(tuple(closed))


def rank(g: SignedGraph, s=None) -> int:
    """rk S = n - b(S); b(S) counts the roots of S's potential less the unbalanced ones."""
    _, root, unbalanced = _potential(g, s)
    return g.n - len(set(root)) + len(unbalanced)


def is_independent(g: SignedGraph, s) -> bool:
    """True iff rank(S) = |S| (iff S contains no frame circuit)."""
    s = _ids(s)
    return rank(g, s) == len(s)
