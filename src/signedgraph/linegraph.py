"""Line graphs of bidirected graphs, the reduced and generalized variants,
and switching isomorphism of signed graphs.

The source graph must consist of links only; line-graph vertices are the
source edges in file order.  Two parallel source edges share two vertices and
therefore get two parallel line edges, one per shared vertex.  Switching
isomorphism relabels with `core._relabel` as contraction does (one edge e is
`contract_set` on {e}) and solves its forced signs with `core._potential`.
"""

from __future__ import annotations

from collections import Counter

from .core import (
    Edge, SgError, SignedGraph, _HALF, _LINK, _LOOP, _LOOSE, _Record, _potential, _relabel, _set, link,
)
from .matrices import adjacency_matrix, reduce as reduce_graph
from .orientation import BidirectedGraph, orient


class LineGraphResult(_Record):
    """The line graph, its inherited orientation, and the vertex labelling
    (line vertex i is the source edge vertex_labels[i])."""

    __slots__ = ("graph", "bidirected", "vertex_labels")

    def __init__(self, graph, bidirected, vertex_labels):
        _set(self, "graph", graph)
        _set(self, "bidirected", bidirected)
        _set(self, "vertex_labels", vertex_labels)


def _as_bidirected(g) -> BidirectedGraph:
    if isinstance(g, BidirectedGraph):
        return g
    return orient(g)


def line_graph(g) -> LineGraphResult:
    """Line graph of a bidirected link graph (a SignedGraph gets the
    canonical orientation first).

    For source edges e, f sharing vertex v, the line edge ef@v has sign
    -tau(v,e)*tau(v,f) and inherits tau(v,e), tau(v,f) as its own end
    directions."""
    b = _as_bidirected(g)
    src = b.graph
    if any(e.kind is not _LINK for e in src.edges):
        raise SgError("line graph needs a source graph of links only")
    labels = tuple(e.id for e in src.edges)
    index = {eid: i for i, eid in enumerate(labels)}

    at = {}  # vertex -> [(edge id, tau at that end)]
    for e in src.edges:
        for slot, v in enumerate(e.ends):
            at.setdefault(v, []).append((e.id, b.tau[(e.id, slot)]))

    edges = []
    tau = {}
    for v in sorted(at):
        incidences = at[v]
        for i in range(len(incidences)):
            for j in range(i + 1, len(incidences)):
                (e1, t1), (e2, t2) = incidences[i], incidences[j]
                lo, hi = sorted((e1, e2))
                lid = f"{lo}|{hi}@{v + 1}"
                edges.append(link(lid, index[e1], index[e2], -t1 * t2))
                tau[(lid, 0)] = t1
                tau[(lid, 1)] = t2
    lam = SignedGraph(len(labels), edges)
    return LineGraphResult(lam, BidirectedGraph(lam, tau), labels)


def reduced_line_graph(g) -> LineGraphResult:
    """Line graph with +/- parallel pairs cancelled (same adjacency matrix)."""
    res = line_graph(g)
    reduced = reduce_graph(res.graph)
    tau = {
        k: v for k, v in res.bidirected.tau.items() if reduced.has_edge(k[0])
    }
    return LineGraphResult(reduced, BidirectedGraph(reduced, tau), res.vertex_labels)


def line_adjacency_identity(g):
    """(A(line graph), 2I - H^T H) with the incidence H built from the shared
    orientation; the two are equal entrywise."""
    b = _as_bidirected(g)
    src = b.graph
    res = line_graph(b)
    a = adjacency_matrix(res.graph)
    m = len(src.edges)
    h = [
        [b.eta(v, e.id) for e in src.edges] for v in range(src.n)
    ]
    hth = [
        [sum(h[v][i] * h[v][j] for v in range(src.n)) for j in range(m)]
        for i in range(m)
    ]
    rhs = [
        [(2 if i == j else 0) - hth[i][j] for j in range(m)] for i in range(m)
    ]
    return a, rhs


def harary_norman(g) -> LineGraphResult:
    """The head-to-tail part of the line graph: exactly its positive edges.

    A pair of ends at v is head-to-tail when tau(v,e) = -tau(v,f), which is
    the sign +1 case of the line edge."""
    res = line_graph(g)
    kept = res.graph.with_edges(e for e in res.graph.edges if e.sign == 1)
    tau = {k: v for k, v in res.bidirected.tau.items() if kept.has_edge(k[0])}
    return LineGraphResult(kept, BidirectedGraph(kept, tau), res.vertex_labels)


def negate(g: SignedGraph) -> SignedGraph:
    """Flip the sign of every link and loop."""
    return g.with_edges(
        Edge(e.id, e.kind, e.ends, -e.sign) if e.is_ordinary else e
        for e in g.edges
    )


# ---------------------------------------------------------------------------
# generalized line graphs


def multigraph_with_petals(n, edge_list, multiplicities):
    """The all-negative base graph plus m_i negative digons at vertex i, each
    digon reaching a fresh vertex.

    A negative digon is a +/- parallel pair; negating the whole graph keeps
    the digons negative."""
    if len(multiplicities) != n:
        raise SgError("need one multiplicity per vertex")
    edges = [
        link(f"e{k + 1}", u, v, -1) for k, (u, v) in enumerate(edge_list)
    ]
    nxt = n
    for v, m in enumerate(multiplicities):
        for t in range(m):
            edges.append(link(f"p{v + 1}.{t + 1}a", v, nxt, 1))
            edges.append(link(f"p{v + 1}.{t + 1}b", v, nxt, -1))
            nxt += 1
    return SignedGraph(nxt, edges)


def generalized_line_graph(n, edge_list, multiplicities):
    """(negated petal graph, negated generalized line graph).

    The first component is the base graph negated with m_i negative digons
    attached at vertex i; the second is the generalized line graph built from
    its definition (line graph of the base, disjoint cocktail party graphs,
    join edges), negated.  The reduced line graph of the first equals the
    second up to switching and isomorphism."""
    if len(multiplicities) != n:
        raise SgError("need one multiplicity per vertex")
    if any(u == v for u, v in edge_list):
        raise SgError("base graph must be simple")
    src = multigraph_with_petals(n, edge_list, multiplicities)

    # vertices of -Lambda(Gamma; m...): base edges first, then 2*m_i cocktail
    # party vertices per base vertex
    m_base = len(edge_list)
    total = m_base + 2 * sum(multiplicities)
    edges = []
    eid = 0

    def neg(u, v):
        nonlocal eid
        eid += 1
        edges.append(link(f"L{eid}", u, v, -1))

    for i in range(m_base):
        for j in range(i + 1, m_base):
            if set(edge_list[i]) & set(edge_list[j]):
                neg(i, j)
    offset = m_base
    for v, m in enumerate(multiplicities):
        cp = list(range(offset, offset + 2 * m))
        offset += 2 * m
        # cocktail party: complete minus the perfect matching (2t, 2t+1)
        for a in range(len(cp)):
            for b in range(a + 1, len(cp)):
                if a // 2 == b // 2:
                    continue
                neg(cp[a], cp[b])
        # join: every cocktail party vertex to every base edge at v
        for i, (x, y) in enumerate(edge_list):
            if v in (x, y):
                for w in cp:
                    neg(i, w)
    return src, SignedGraph(total, edges)


# ---------------------------------------------------------------------------
# switching isomorphism


def _switching_same_multigraph(g1: SignedGraph, g2: SignedGraph):
    """True iff the two graphs on the same vertex set, with equal underlying
    multigraphs, differ by a switching (edge ids ignored)."""
    def classes(g):
        out = {}
        for e in g.edges:
            key = (e.kind, tuple(sorted(e.ends)))
            out.setdefault(key, []).append(e.sign)
        return out

    c1, c2 = classes(g1), classes(g2)
    if {k: len(v) for k, v in c1.items()} != {k: len(v) for k, v in c2.items()}:
        return False

    # per class: the admissible factors zeta(u)*zeta(v); a class that admits
    # one factor only becomes a forced link carrying that factor as its sign
    forced = []
    for key, signs1 in c1.items():
        kind, ends = key
        if kind is _HALF or kind is _LOOSE:
            continue
        m1, m2 = Counter(signs1), Counter(c2[key])
        same = m1 == m2
        opposite = m1 == Counter({-s: c for s, c in m2.items()})
        if kind is _LOOP:
            if not same:  # zeta(v)^2 = 1 always
                return False
        elif not (same or opposite):
            return False
        elif same != opposite:
            forced.append(link(str(len(forced)), *ends, 1 if same else -1))
    # some zeta meets every forced factor iff the forced links are balanced
    return not _potential(SignedGraph(g1.n, forced))[2]


def switching_isomorphic(g1: SignedGraph, g2: SignedGraph):
    """A vertex bijection phi with g1^phi switching-equivalent to g2, or None.

    Backtracking over vertex assignments with degree and link-multiplicity
    pruning; meant for desk-scale graphs (order around 10)."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None

    def tables(g):
        degree = [0] * g.n
        links = Counter()  # {u, v} -> number of links joining u and v
        for e in g.edges:
            for v in e.ends:
                degree[v] += 1
            if e.kind is _LINK:
                links[frozenset(e.ends)] += 1
        return degree, links

    (deg1, links1), (deg2, links2) = tables(g1), tables(g2)
    if sorted(deg1) != sorted(deg2):
        return None

    order = sorted(range(g1.n), key=lambda v: -deg1[v])
    phi = {}
    used = set()

    def consistent(v, w):
        return deg1[v] == deg2[w] and all(
            links1[frozenset((v, u))] == links2[frozenset((w, x))] for u, x in phi.items()
        )

    def backtrack(i):
        if i == len(order):
            return _switching_same_multigraph(_relabel(g1.n, g1.edges, phi), g2)
        v = order[i]
        for w in range(g2.n):
            if w in used or not consistent(v, w):
                continue
            phi[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del phi[v]
            used.discard(w)
        return False

    if backtrack(0):
        return dict(phi)
    return None
