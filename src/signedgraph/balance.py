"""Balance testing, switching, Harary bipartitions, and balancing sets.

Balance is decided by the linear-time switching algorithm: one BFS of the
links gives the switching potential zeta that makes the tree all positive
(`core._potential`), and a component is balanced iff every link and loop is
positive after switching by zeta and it carries no half edge.  The same
potential gives the Harary bipartition and switching equivalence; the
exponential circle-sign check lives only in the test suite.

Balancing edges and vertices (Harary 1953; Zaslavsky, "Signed graphs", 1982)
come from one DFS per component instead (`_frustration_counts`), which takes
zeta along the DFS tree.  Then every non-tree link is a back link to an
ancestor, and the elements that no switching can make positive are the
frustrated ones: half edges, and non-tree links and loops that stay negative.
Deleting an edge or vertex balances a component iff what is left of its
frustrated elements can be made positive by switching the pieces the deletion
cuts off, and subtree sums of the back links that cross each tree link decide
that for every edge and vertex at once, in O(n + m).  The rules are stated
on `classify_balancing_edges` and `balancing_vertices`; the definitional
recomputations (one balance test per deleted edge or vertex) are their test
oracles.

A minimum balancing set is the frustrated set of a best switching: it costs
2^(n_i - 1) switchings per unbalanced link component of order n_i, at most
the balancing-set cap (`core.CAPS`); the search over edge subsets is its oracle.
"""

from __future__ import annotations

from itertools import combinations

from .core import (
    DFS_BACK,
    DFS_ROOT,
    DFS_TREE,
    SgError,
    SignedGraph,
    _HALF,
    _LINK,
    _LOOP,
    _LOOSE,
    _dfs,
    _edge,
    _graph,
    _groups,
    _link_adjacency,
    _cap,
    _negative_circles,
    _potential,
    _Record,
    _signed_circles,
    _switching_bfs,
    _vertices,
)


class BalancePartition(_Record):
    """pi_b: vertex sets of balanced components; v0: vertices of unbalanced ones."""

    __slots__ = ("pib", "v0")  # pib: tuple of sorted vertex tuples

    @property
    def b(self):
        return len(self.pib)


def balance_partition(g: SignedGraph, s=None) -> BalancePartition:
    """Classify each component of (V, s) as balanced or not, from the
    switching potential of s.  Isolated vertices are balanced components."""
    _, root, unbalanced = _potential(g, s)
    groups = _groups(root)
    pib = tuple(tuple(vs) for vs in groups if vs[0] not in unbalanced)
    v0 = frozenset(v for vs in groups if vs[0] in unbalanced for v in vs)
    return BalancePartition(pib, v0)


def is_balanced(g: SignedGraph, s=None) -> bool:
    return not _potential(g, s)[2]


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
    """Switch by zeta: V -> {+1,-1}, a callable or a sequence or mapping
    indexed by vertex that has a value at every vertex; half and loose edges
    are unchanged."""
    values = []
    for v in range(g.n):
        try:
            val = zeta(v) if callable(zeta) else zeta[v]
        except LookupError:
            raise SgError(f"switching function has no value at vertex {v}") from None
        if val not in (1, -1):
            raise SgError(f"switching value at vertex {v} must be +1 or -1")
        values.append(1 if val == 1 else -1)  # an int, as edge signs are
    return _switched(g, values)


def _switched(g: SignedGraph, zeta) -> SignedGraph:
    """g switched by zeta, a list of +1 and -1 indexed by vertex."""
    out = g._by_id.copy()
    for e in g.edges:
        if e.kind is _LINK:
            u, v = e.ends
            if zeta[u] != zeta[v]:
                out[e.id] = _edge(e.id, _LINK, e.ends, -e.sign)
    return _graph(g.n, out)


def switch_set(g: SignedGraph, x) -> SignedGraph:
    """Switch the vertex set x (negate signs across the cut E(x, x^c))."""
    x = _vertices(g.n, x)
    return _switched(g, [-1 if v in x else 1 for v in range(g.n)])


def switching_equivalent(g1: SignedGraph, g2: SignedGraph):
    """A switching function zeta with g1^zeta == g2, or None.

    zeta is the switching potential of the common underlying graph signed
    by sigma1(e) sigma2(e), taken on an adjacency of its links
    (`core._switching_bfs`) with edges matched by id: edge order and the
    order of a link's ends do not matter.  It exists iff no link of that
    graph is frustrated and every loop has one sign in both graphs.
    """
    by_id = g2._by_id
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        raise SgError("graphs have different underlying graphs")
    adj = [[] for _ in range(g1.n)]
    differ = []  # the vertex of each loop whose sign differs, a negative loop of the product
    for e in g1.edges:
        f = by_id.get(e.id)
        ends = e.ends
        if f is None or e.kind is not f.kind or (ends != f.ends and ends != f.ends[::-1]):
            raise SgError("graphs have different underlying graphs")
        if e.kind is _LINK:
            u, v = ends
            if e.sign == f.sign:
                adj[u].append(v)
                adj[v].append(u)
            else:
                adj[u].append(~v)
                adj[v].append(~u)
        elif e.sign != f.sign:
            differ.append(ends[0])
    zeta, _, unbalanced = _switching_bfs(adj, differ)
    return None if unbalanced else dict(enumerate(zeta))


class _FrustrationCounts(_Record):
    """Counts from one DFS per component (`_frustration_counts`), per vertex
    v.  subtree(v) is v's DFS subtree; a back link leaves subtree(v) when its
    lower end is inside and its upper end above v."""

    __slots__ = (
        "root",  # lowest vertex of v's component
        "parent",  # v's parent vertex, None at a root
        "child",  # tree link id -> its lower end
        "frustrated",  # ids of the frustrated elements
        "fixed",  # half edges and negative loops at v
        "low_fr",  # frustrated back links whose lower end is v
        "below_fr",  # frustrated elements counted at a vertex of subtree(v)
        "cross",  # back links leaving subtree(v)
        "cross_fr",  # frustrated back links leaving subtree(v)
        "up",  # back links leaving subtree(v) that end at v's parent
        "up_fr",  # frustrated ones among them
    )

    def unbalanced(self):
        """Roots of the components with a frustrated element."""
        return [r for r, rr in enumerate(self.root) if r == rr and self.below_fr[r]]


def _frustration_counts(g: SignedGraph) -> _FrustrationCounts:
    """Take zeta along one DFS tree per component, so that every non-tree
    link is a back link from a vertex to one of its ancestors, and count the
    frustrated elements: half edges, and non-tree links and loops with
    zeta(u) sigma(e) zeta(v) = -1.  A back link adds +1 at its lower end and
    -1 at its upper end, so subtree sums count the links leaving a subtree;
    it is also recorded at the child of its upper end on the tree path.  A
    frustrated element is counted at its lower end (or its only vertex)."""
    n = g.n
    fixed = [0] * n
    frustrated = set()
    for e in g.edges:
        if e.kind is _HALF or (e.kind is _LOOP and e.sign < 0):
            fixed[e.ends[0]] += 1
            frustrated.add(e.id)
    zeta = [1] * n
    depth = [0] * n
    root = list(range(n))
    parent = [None] * n
    child = {}
    low_fr = [0] * n
    below_fr = fixed.copy()
    cross, cross_fr, up, up_fr = ([0] * n for _ in range(4))
    path = []  # the tree path from the current root to the current vertex
    for step, v, e, w in _dfs(_link_adjacency(n, g.edges)):
        if step == DFS_TREE:
            zeta[w] = zeta[v] * e.sign
            depth[w] = depth[v] + 1
            root[w] = root[v]
            parent[w] = v
            child[e.id] = w
            path.append(w)
        elif step == DFS_BACK:
            below = path[depth[w] + 1]  # the child of w towards v
            cross[v] += 1
            cross[w] -= 1
            up[below] += 1
            if zeta[v] * e.sign * zeta[w] < 0:
                frustrated.add(e.id)
                low_fr[v] += 1
                below_fr[v] += 1
                cross_fr[v] += 1
                cross_fr[w] -= 1
                up_fr[below] += 1
        elif step == DFS_ROOT:
            path.append(w)
        else:  # w's subtree is complete: add its sums to its parent v
            path.pop()
            if v is not None:
                below_fr[v] += below_fr[w]
                cross[v] += cross[w]
                cross_fr[v] += cross_fr[w]
    return _FrustrationCounts(
        root, parent, child, frustrated, fixed, low_fr, below_fr, cross, cross_fr, up, up_fr
    )


def classify_balancing_edges(g: SignedGraph):
    """Map each edge id, in file order, to 'total' (deleting it balances the
    graph), 'partial' (deleting it leaves the graph unbalanced but raises
    b, the number of balanced components) or 'none'.

    From one DFS per component (`_frustration_counts`), with F(K) the number
    of frustrated elements of component K and U the number of components
    with F > 0:

    - if U = 0 every edge is 'none'; loose edges and positive loops always are;
    - a non-tree element e balances K iff e is frustrated and F(K) = 1;
    - a tree link to child c that no back link crosses is a bridge: it is
      'partial' iff F(K) = 0 or subtree(c) holds 0 or F(K) frustrated
      elements, and never 'total';
    - any other tree link to c balances K iff the back links crossing it are
      exactly the F(K) frustrated elements of K;
    - an edge that balances K is 'total' if U = 1 and 'partial' otherwise.

    O(n + m).
    """
    k = _frustration_counts(g)
    n_unbalanced = len(k.unbalanced())
    out = {}
    for e in g.edges:
        out[e.id] = "none"
        if not n_unbalanced or e.kind is _LOOSE:
            continue
        f = k.below_fr[k.root[e.ends[0]]]
        child = k.child.get(e.id)
        if child is None:
            balances = f == 1 and e.id in k.frustrated
        elif not k.cross[child]:
            if f == 0 or k.below_fr[child] in (0, f):
                out[e.id] = "partial"
            continue
        else:
            balances = k.cross_fr[child] == k.cross[child] == f
        if balances:
            out[e.id] = "total" if n_unbalanced == 1 else "partial"
    return out


def balancing_vertices(g: SignedGraph) -> frozenset:
    """Vertices v with g - v balanced although g is unbalanced.

    From the counts of `_frustration_counts`, v is balancing iff:

    - exactly one component K is unbalanced, and v lies in K;
    - every half edge and negative loop of K is at v;
    - for each child x of v, the back links from subtree(x) that pass above
      v are all frustrated or none of them are;
    - the frustrated back links not incident to v are exactly those that
      pass above v.

    Deleting v leaves subtree(x) joined to the rest of K only by the back
    links that pass above v, so switching subtree(x) or not fixes those;
    every other remaining link keeps its frustration.  O(n + m).
    """
    k = _frustration_counts(g)
    unbalanced = k.unbalanced()
    if len(unbalanced) != 1:
        return frozenset()
    (r,) = unbalanced
    inside = [v for v in range(g.n) if k.root[v] == r]
    fixed = sum(k.fixed[v] for v in inside)
    back_fr = k.below_fr[r] - fixed
    children_fr = [0] * g.n  # frustrated back links leaving the children's subtrees
    mixed = [False] * g.n  # a child's back links above v are partly frustrated
    for x in inside:
        v = k.parent[x]
        if v is None:
            continue
        children_fr[v] += k.cross_fr[x]
        if k.cross_fr[x] - k.up_fr[x] not in (0, k.cross[x] - k.up[x]):
            mixed[v] = True
    return frozenset(
        v
        for v in inside
        if k.fixed[v] == fixed and not mixed[v] and back_fr - k.low_fr[v] == children_fr[v]
    )


def min_balancing_set(g: SignedGraph) -> frozenset:
    """A minimum balancing set: every half edge and negative loop, plus the
    frustrated links of a best switching, found among the 2^(n_i - 1) in
    Gray-code order, of each unbalanced link component (order n_i, capped).
    Ties go to the least sorted id tuple: with bit i for a component's i-th
    largest link id, of two masks of equal size the greater holds the least
    element of their symmetric difference; per-component choices compose."""
    links = [e for e in g.edges if e.kind is _LINK]
    zeta, root, unbalanced = _potential(g, [e.id for e in links])
    out = [e.id for e in g.edges if e.kind is _HALF or (e.kind is _LOOP and e.sign < 0)]
    comps = {r: [] for r in sorted(unbalanced)}
    for e in links:
        if root[e.ends[0]] in comps:
            comps[root[e.ends[0]]].append(e)
    for comp in comps.values():
        ids = sorted((e.id for e in comp), reverse=True)
        bit = {eid: 1 << i for i, eid in enumerate(ids)}
        at = {}  # v -> mask of the links at v
        mask = 0  # the frustrated links under the current switching
        for e in comp:
            u, v = e.ends
            at[u], at[v] = at.get(u, 0) | bit[e.id], at.get(v, 0) | bit[e.id]
            if zeta[u] * e.sign * zeta[v] < 0:
                mask |= bit[e.id]
        _cap("balancing-set", len(at))
        flips = list(at.values())[1:]  # the first vertex keeps its side
        best, best_size = mask, mask.bit_count()
        for i in range(1, 1 << len(flips)):
            mask ^= flips[(i & -i).bit_length() - 1]
            size = mask.bit_count()
            if size < best_size or (size == best_size and mask > best):
                best, best_size = mask, size
        out += [eid for eid in ids if best & bit[eid]]
    return frozenset(out)


def has_two_disjoint_negative_circles(g: SignedGraph) -> bool:
    """True iff two vertex-disjoint negative circles exist; a half edge counts as one."""
    _cap("circle enumeration", len(g.edges))
    circles = _negative_circles(g.edges, _signed_circles(g.n, g.edges))
    return any(not vs1 & vs2 for (_, vs1), (_, vs2) in combinations(circles, 2))


def blocks(g: SignedGraph):
    """Blocks as edge sets (plus isolated vertices as ({v}, empty)).

    Loops and half edges are single-edge blocks at their vertex; loose edges
    belong to no block.  Links are grouped by the standard cut-vertex DFS
    (`core._dfs`), and each block is listed when the DFS closes it.
    """
    adj = _link_adjacency(g.n, g.edges)
    out = [
        (frozenset(e.ends), frozenset([e.id]))
        for e in g.edges
        if e.kind is _LOOP or e.kind is _HALF
    ]
    at_loop_or_half = {v for vs, _ in out for v in vs}

    disc = [0] * g.n
    low = [0] * g.n
    counter = 0
    stack = []  # links of the blocks not yet closed
    for step, v, e, w in _dfs(adj):
        if step == DFS_ROOT or step == DFS_TREE:
            disc[w] = low[w] = counter
            counter += 1
            if e is not None:
                stack.append(e)
        elif step == DFS_BACK:
            stack.append(e)
            low[v] = min(low[v], disc[w])
        elif v is None:  # a root is done
            if not adj[w] and w not in at_loop_or_half:
                out.append((frozenset([w]), frozenset()))
        else:
            low[v] = min(low[v], low[w])
            if low[w] >= disc[v]:  # v separates the block entered by e
                block = []
                while True:
                    top = stack.pop()
                    block.append(top)
                    if top is e:
                        break
                verts = frozenset(x for b in block for x in b.ends)
                out.append((verts, frozenset(b.id for b in block)))
    return out
