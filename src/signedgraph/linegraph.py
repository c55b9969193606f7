"""Line graphs of bidirected graphs, the reduced and generalized variants,
and switching isomorphism of signed graphs.

The source graph must consist of links only; line-graph vertices are the
source edges in file order.  Two parallel source edges share two vertices and
therefore get two parallel line edges, one per shared vertex.  Switching
isomorphism is one non-recursive search over vertex maps; the switching
factors a partial map forces live on `core._UndoableUnionFind`.
"""

from __future__ import annotations

from .core import Edge, SgError, SignedGraph, _LINK, _LOOP, _Record, _UndoableUnionFind, _cap, _count, _pairs, link
from .matrices import _dense, adjacency_matrix, reduce as reduce_graph
from .orientation import BidirectedGraph, orient


class LineGraphResult(_Record):
    """The line graph, its inherited orientation, and the vertex labelling
    (line vertex i is the source edge vertex_labels[i])."""

    __slots__ = ("graph", "bidirected", "vertex_labels")


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
    return _with_line_graph(res, reduce_graph(res.graph))


def line_adjacency_identity(g):
    """(A(line graph), 2I - H^T H) with the incidence H built from the shared
    orientation; the two are equal entrywise.  H^T H sums, for each vertex v,
    the products of the entries in row v of H."""
    b = _as_bidirected(g)
    src = b.graph
    a = adjacency_matrix(line_graph(b).graph)
    m = len(src.edges)
    at = [[] for _ in range(src.n)]  # row v of H: (column, eta) of each source edge at v
    for j, e in enumerate(src.edges):
        for v in e.ends:  # a link: two distinct ends
            at[v].append((j, b.eta(v, e.id)))
    return a, _dense(m, m, [(j, j, 2) for j in range(m)] + [(i, j, -x * y) for h in at for i, x in h for j, y in h])


def harary_norman(g) -> LineGraphResult:
    """The head-to-tail part of the line graph: exactly its positive edges.

    A pair of ends at v is head-to-tail when tau(v,e) = -tau(v,f), which is
    the sign +1 case of the line edge."""
    res = line_graph(g)
    return _with_line_graph(res, res.graph.with_edges(e for e in res.graph.edges if e.sign == 1))


def _with_line_graph(res, graph) -> LineGraphResult:
    """res with its line graph replaced by graph, a subgraph of it on the same
    vertices, and the orientation cut to graph's edges."""
    tau = {k: v for k, v in res.bidirected.tau.items() if graph.has_edge(k[0])}
    return LineGraphResult(graph, BidirectedGraph(graph, tau), res.vertex_labels)


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
    _cap("input-vertex", n + sum(_count("multiplicity", m) for m in multiplicities))
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
    pairs = _pairs(n, edge_list, "base graph")
    src = multigraph_with_petals(n, edge_list, multiplicities)

    # vertices of -Lambda(Gamma; m...): base edges first, then 2*m_i cocktail
    # party vertices per base vertex
    m_base = len(pairs)
    total = m_base + 2 * sum(multiplicities)
    edges = []
    eid = 0

    def neg(u, v):
        nonlocal eid
        eid += 1
        edges.append(link(f"L{eid}", u, v, -1))

    for i in range(m_base):
        for j in range(i + 1, m_base):
            if set(pairs[i]) & set(pairs[j]):
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
        for i, (x, y) in enumerate(pairs):
            if v in (x, y):
                for w in cp:
                    neg(i, w)
    return src, SignedGraph(total, edges)


# ---------------------------------------------------------------------------
# switching isomorphism


def _tables(g: SignedGraph):
    """Per vertex [degree, half edges, positive loops, negative loops] and, per
    link neighbour, [positive, negative] link counts; the loose-edge count."""
    at = [[0, 0, 0, 0] for _ in range(g.n)]
    links = [{} for _ in range(g.n)]
    loose = 0
    for e in g.edges:
        ends, neg = e.ends, e.sign == -1
        for v in ends:
            at[v][0] += 1
        if e.kind is _LINK:
            u, v = ends
            links[u].setdefault(v, [0, 0])[neg] += 1
            links[v].setdefault(u, [0, 0])[neg] += 1
        elif e.kind is _LOOP:
            at[ends[0]][2 + neg] += 1
        elif ends:
            at[ends[0]][1] += 1
        else:
            loose += 1
    return at, links, loose


_NO_LINKS = [0, 0]  # a list, as the tables hold; never written


def switching_isomorphic(g1: SignedGraph, g2: SignedGraph):
    """A vertex bijection phi with g1^phi switching-equivalent to g2, or None.

    Maps the vertices v of g1 in order of falling degree, each to the lowest
    free vertex w of g2 that fits, backing up on an explicit stack.  v fits w
    when both have the same degree, half edges and loops by sign, and for
    every u mapped before, the links v-u carry the signs of the links w-phi(u)
    or all of them negated.  Where exactly one of the two holds, it forces
    zeta(u)zeta(v) = +1 or -1; the forced factors live on one undoable
    union-find, and a w that makes it unbalanced does not fit.  Each (v, w)
    tried counts against the switching-isomorphism cap."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    (at1, links1, loose1), (at2, links2, loose2) = _tables(g1), _tables(g2)
    if loose1 != loose2 or sorted(at1) != sorted(at2):
        return None
    n = g1.n
    order = sorted(range(n), key=lambda v: -at1[v][0])
    image, forced = [], []  # phi(order[i]), and how many factors that choice put on uf
    used = [False] * n
    uf = _UndoableUnionFind(n)
    steps = w = 0
    while len(image) < n:
        if w == n:  # nothing fits order[len(image)]: back up
            if not image:
                return None
            w = image.pop()
            used[w] = False
            for _ in range(forced.pop()):
                uf.undo()
            w += 1
            continue
        steps += 1
        _cap("switching-isomorphism", steps)
        v, k = order[len(image)], 0
        fits = not used[w] and at1[v] == at2[w]
        for u, x in zip(order, image) if fits else ():
            a, b = links1[v].get(u, _NO_LINKS), links2[w].get(x, _NO_LINKS)
            same, opposite = a == b, a == b[::-1]
            if same != opposite:
                uf.add((v, u, int(opposite)))
                k += 1
            fits = (same or opposite) and not uf.unbalanced
            if not fits:
                break
        if fits:
            image.append(w)
            forced.append(k)
            used[w] = True
            w = 0
        else:
            for _ in range(k):
                uf.undo()
            w += 1
    return dict(zip(order, image))
