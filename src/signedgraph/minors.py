"""Deletion and contraction of edges and edge sets.

Contraction of a set is only well defined up to switching; we fix a canonical
representative by switching every balanced component of the contracted set to
all-positive via a BFS tree rooted at its lowest vertex.  Merged vertices take
the minimum constituent index, and a MinorTrace records the provenance.
Contracting a single edge e is contracting the set {e}.
"""

from __future__ import annotations

from .core import SignedGraph, _Record, _graph, _ids, _potential, _relabel


class MinorTrace(_Record):
    """Provenance of a minor: the contracted set and where each vertex went.

    vertex_map maps old vertex -> new vertex index, or None if absorbed
    (deleted with an unbalanced component or an unbalanced edge)."""

    __slots__ = ("contracted", "vertex_map")


def delete_edges(g: SignedGraph, s) -> SignedGraph:
    s = _ids(s)
    kept = {e.id: e for e in g.edges if e.id not in s}
    if len(kept) + len(s) != len(g.edges):
        g.restricted(s)  # some id of s is not in g: raises naming them
    return _graph(g.n, kept)


def contract_edge(g: SignedGraph, eid):
    """Contract one edge: contract_set(g, [eid]), which amounts to this table.

    Positive link: identify endpoints.  Negative link: switch the
    higher-indexed endpoint first.  Positive loop / loose: delete the edge.
    Negative loop / half edge at v: delete v and the edge; other edges at v
    lose that endpoint (link -> half, loop/half -> loose).
    """
    g.edge(eid)  # validates the id
    return contract_set(g, [eid])


def contract_set(g: SignedGraph, s):
    """Contract an edge set: vertices become the balanced components of s
    (canonical switching makes each all positive); unbalanced-component
    vertices vanish and incident outside edges lose those endpoints."""
    s = _ids(s)
    zeta, root, unbalanced = _potential(g, s)
    roots = sorted(set(root) - unbalanced)
    index = {r: i for i, r in enumerate(roots)}
    vmap = {v: index.get(root[v]) for v in range(g.n)}
    rest = [e for e in g.edges if e.id not in s]
    trace = MinorTrace(s, vmap)
    # switched by zeta in the same pass; zeta on unbalanced components is irrelevant
    return _relabel(len(roots), rest, vmap, zeta), trace
