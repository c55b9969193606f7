"""Deletion and contraction of edges and edge sets.

Contraction of a set is only well defined up to switching; we fix a canonical
representative by switching every balanced component of the contracted set to
all-positive via a BFS tree rooted at its lowest vertex.  Merged vertices take
the minimum constituent index, and a MinorTrace records the provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Edge, EdgeKind, SignedGraph, _potential
from .balance import switch


@dataclass(frozen=True)
class MinorTrace:
    """Provenance of a minor: what was removed and where each vertex went.

    vertex_map maps old vertex -> new vertex index, or None if absorbed
    (deleted with an unbalanced component or an unbalanced edge)."""

    deleted: frozenset
    contracted: frozenset
    vertex_map: dict


def delete_edges(g: SignedGraph, s) -> SignedGraph:
    s = frozenset(s)
    g.restricted(s)  # validates ids
    return g.with_edges(e for e in g.edges if e.id not in s)


def _relabelled(n_new, edges, vmap):
    out = []
    for e in edges:
        new_ends = tuple(vmap[v] for v in e.ends if vmap[v] is not None)
        if e.is_ordinary:
            if len(new_ends) == 2:
                kind = EdgeKind.LINK if new_ends[0] != new_ends[1] else EdgeKind.LOOP
                out.append(Edge(e.id, kind, new_ends, e.sign))
            elif len(new_ends) == 1:
                out.append(Edge(e.id, EdgeKind.HALF, new_ends))
            else:
                out.append(Edge(e.id, EdgeKind.LOOSE, ()))
        elif e.kind is EdgeKind.HALF:
            if new_ends:
                out.append(Edge(e.id, EdgeKind.HALF, new_ends))
            else:
                out.append(Edge(e.id, EdgeKind.LOOSE, ()))
        else:
            out.append(e)
    return SignedGraph(n_new, out)


def contract_edge(g: SignedGraph, eid):
    """Contract one edge per the case table.

    Positive link: identify endpoints.  Negative link: switch the
    higher-indexed endpoint first.  Positive loop / loose: delete the edge.
    Negative loop / half edge at v: delete v and the edge; other edges at v
    lose that endpoint (link -> half, loop/half -> loose).
    """
    e = g.edge(eid)

    if e.kind is EdgeKind.LOOSE or (e.kind is EdgeKind.LOOP and e.sign == 1):
        trace = MinorTrace(frozenset(), frozenset([eid]), {v: v for v in range(g.n)})
        return delete_edges(g, [eid]), trace

    if e.kind is EdgeKind.LINK:
        if e.sign == -1:
            hi = max(e.ends)
            g = switch(g, {v: (-1 if v == hi else 1) for v in range(g.n)})
        u, v = min(e.ends), max(e.ends)
        vmap = {}
        for w in range(g.n):
            t = u if w == v else w
            vmap[w] = t if t < v else t - 1
        rest = [x for x in g.edges if x.id != eid]
        trace = MinorTrace(frozenset(), frozenset([eid]), vmap)
        return _relabelled(g.n - 1, rest, vmap), trace

    # negative loop or half edge at v: drop the vertex
    v = e.ends[0]
    vmap = {w: (None if w == v else (w if w < v else w - 1)) for w in range(g.n)}
    rest = [x for x in g.edges if x.id != eid]
    trace = MinorTrace(frozenset(), frozenset([eid]), vmap)
    return _relabelled(g.n - 1, rest, vmap), trace


def contract_set(g: SignedGraph, s):
    """Contract an edge set: vertices become the balanced components of s
    (canonical switching makes each all positive); unbalanced-component
    vertices vanish and incident outside edges lose those endpoints."""
    s = frozenset(s)
    zeta, root, unbalanced = _potential(g, s)
    switched = switch(g, zeta)  # zeta on unbalanced components is irrelevant

    roots = sorted(set(root) - unbalanced)
    index = {r: i for i, r in enumerate(roots)}
    vmap = {v: index.get(root[v]) for v in range(g.n)}
    rest = [e for e in switched.edges if e.id not in s]
    trace = MinorTrace(frozenset(), s, vmap)
    return _relabelled(len(roots), rest, vmap), trace
