"""Deletion and contraction of edges and edge sets.

Contraction of a set is only well defined up to switching; we fix a canonical
representative by switching every balanced component of the contracted set to
all-positive via a BFS tree rooted at its lowest vertex.  Merged vertices take
the minimum constituent index, and a MinorTrace records the provenance.
Contracting a single edge e is contracting the set {e}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SignedGraph, _potential, _relabel
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
    s = frozenset(s)
    zeta, root, unbalanced = _potential(g, s)
    switched = switch(g, zeta)  # zeta on unbalanced components is irrelevant

    roots = sorted(set(root) - unbalanced)
    index = {r: i for i, r in enumerate(roots)}
    vmap = {v: index.get(root[v]) for v in range(g.n)}
    rest = [e for e in switched.edges if e.id not in s]
    trace = MinorTrace(frozenset(), s, vmap)
    return _relabel(len(roots), rest, vmap), trace
