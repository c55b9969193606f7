"""Core data model: signed graphs with all four edge kinds.

Vertices are dense integers 0..n-1 internally; the text format is 1-based.
Edges carry user-visible string ids so subsets and reports are traceable.
All values are immutable after construction and every operation is a pure
function, so concurrent use is safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

DEFAULT_CIRCLE_CAP = 20
_id_ok = re.compile(r"[^\s#,]+").fullmatch


class SgError(Exception):
    """Domain error (bad input, cap exceeded, invalid reference)."""


class EdgeKind(Enum):
    LINK = "link"
    LOOP = "loop"
    HALF = "half"
    LOOSE = "loose"


# read faster than EdgeKind members by Edge.__post_init__, run for every edge built
_LINK, _LOOP, _HALF = EdgeKind.LINK, EdgeKind.LOOP, EdgeKind.HALF


@dataclass(frozen=True)
class Edge:
    """One edge: a link (2 distinct ends), loop (2 equal ends), half (1), or loose (0).

    Links and loops carry a sign in {+1, -1}; half and loose edges are unsigned.
    The id is a nonempty string without whitespace, "#" or ",": parse splits
    on whitespace and cuts at "#", and CLI edge lists split on ",".
    """

    id: str
    kind: EdgeKind
    ends: tuple  # vertex indices, length 2 / 2 / 1 / 0
    sign: Optional[int] = None

    def __post_init__(self):
        eid, k, ends, sign = self.id, self.kind, self.ends, self.sign
        if not isinstance(eid, str) or not _id_ok(eid):
            raise SgError(f"bad edge id {eid!r}: need a nonempty string without whitespace, '#', ','")
        if k is _LINK:
            if len(ends) != 2 or ends[0] == ends[1]:
                raise SgError(f"link {eid!r} needs two distinct endpoints")
        elif k is _LOOP:
            if len(ends) != 2 or ends[0] != ends[1]:
                raise SgError(f"loop {eid!r} needs two equal endpoints")
        elif k is _HALF:
            if len(ends) != 1:
                raise SgError(f"half edge {eid!r} needs one endpoint")
        elif len(ends) != 0:
            raise SgError(f"loose edge {eid!r} has no endpoints")
        if k is _LINK or k is _LOOP:
            if sign not in (1, -1):
                raise SgError(f"edge {eid!r} needs a sign in {{+1,-1}}")
        elif sign is not None:
            raise SgError(f"{k.name.lower()} edge {eid!r} cannot carry a sign")

    @property
    def is_ordinary(self):
        return self.kind in (EdgeKind.LINK, EdgeKind.LOOP)


def link(eid, u, v, sign):
    return Edge(eid, EdgeKind.LINK, (u, v), sign)


def loop(eid, v, sign):
    return Edge(eid, EdgeKind.LOOP, (v, v), sign)


def half(eid, v):
    return Edge(eid, EdgeKind.HALF, (v,))


def loose(eid):
    return Edge(eid, EdgeKind.LOOSE, ())


@dataclass(frozen=True)
class SignedGraph:
    """A signed graph of order n with an edge sequence (file order preserved)."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = {}
        for e in self.edges:
            if e.id in seen:
                raise SgError(f"duplicate edge id {e.id!r}")
            seen[e.id] = e
            for v in e.ends:
                if not 0 <= v < self.n:
                    raise SgError(f"edge {e.id!r}: vertex {v} out of range")
        object.__setattr__(self, "_by_id", seen)

    def edge(self, eid):
        try:
            return self._by_id[eid]
        except KeyError:
            raise SgError(f"unknown edge id {eid!r}") from None

    @property
    def edge_ids(self):
        return frozenset(self._by_id)

    def has_edge(self, eid):
        return eid in self._by_id

    def restricted(self, s):
        """The edges of this graph whose ids lie in s, in file order."""
        s = frozenset(s)
        missing = s - self._by_id.keys()
        if missing:
            raise SgError(f"unknown edge ids {sorted(missing)}")
        return tuple(e for e in self.edges if e.id in s)

    def degree(self, v):
        if not 0 <= v < self.n:
            raise SgError(f"vertex {v} out of range")
        return sum(e.ends.count(v) for e in self.edges)

    def with_edges(self, edges):
        return SignedGraph(self.n, tuple(edges))


# ---------------------------------------------------------------------------
# text format


def parse(text) -> SignedGraph:
    """Parse the line-oriented `sg 1` text format (1-based vertices)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the "." stands for the bad byte, so its own line is counted
            lineno = len((text[: exc.start].decode("utf-8") + ".").splitlines())
            raise SgError(f"line {lineno}: input is not valid UTF-8") from None
    lines = text.splitlines()
    n = None
    edges = []
    seen = set()
    saw_magic = False

    def err(lineno, msg):
        raise SgError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not saw_magic:
            if fields != ["sg", "1"]:
                err(lineno, "expected magic line 'sg 1'")
            saw_magic = True
            continue
        directive = fields[0]
        if directive == "n":
            if n is not None:
                err(lineno, "duplicate 'n' directive")
            if len(fields) != 2 or not fields[1].isdecimal():
                err(lineno, "expected 'n <order>'")
            n = int(fields[1])
            continue
        if n is None:
            err(lineno, "'n' directive must precede edges")
        if directive == "edge":
            if len(fields) != 5:
                err(lineno, "expected 'edge <id> <u> <v> <+|->'")
            eid, us, vs, ss = fields[1:]
            if ss not in ("+", "-"):
                err(lineno, f"bad sign {ss!r}")
            try:
                u, v = int(us) - 1, int(vs) - 1
            except ValueError:
                err(lineno, "vertex indices must be integers")
            if not (0 <= u < n and 0 <= v < n):
                err(lineno, f"vertex index out of range in edge {eid!r}")
            sign = 1 if ss == "+" else -1
            e = link(eid, u, v, sign) if u != v else loop(eid, u, sign)
        elif directive == "half":
            if len(fields) != 3:
                err(lineno, "expected 'half <id> <v>'")
            eid, vs = fields[1:]
            try:
                v = int(vs) - 1
            except ValueError:
                err(lineno, "vertex index must be an integer")
            if not 0 <= v < n:
                err(lineno, f"vertex index out of range in half edge {eid!r}")
            e = half(eid, v)
        elif directive == "loose":
            if len(fields) != 2:
                err(lineno, "expected 'loose <id>'")
            e = loose(fields[1])
        else:
            err(lineno, f"unknown directive {directive!r}")
        if e.id in seen:
            err(lineno, f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        edges.append(e)

    if not saw_magic:
        raise SgError("line 1: expected magic line 'sg 1'")
    if n is None:
        raise SgError("missing 'n' directive")
    return SignedGraph(n, tuple(edges))


def serialize(g: SignedGraph) -> bytes:
    """Deterministic byte serialization; parse(serialize(g)) == g."""
    out = ["sg 1", f"n {g.n}"]
    for e in g.edges:
        if e.is_ordinary:
            u, v = e.ends
            s = "+" if e.sign > 0 else "-"
            out.append(f"edge {e.id} {u + 1} {v + 1} {s}")
        elif e.kind is EdgeKind.HALF:
            out.append(f"half {e.id} {e.ends[0] + 1}")
        else:
            out.append(f"loose {e.id}")
    return ("\n".join(out) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# subgraph structure


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _link_adjacency(n, edges):
    """adj[v] lists (link, other end) for each link of edges at v, in the
    order of edges."""
    adj = [[] for _ in range(n)]
    for e in edges:
        if e.kind is EdgeKind.LINK:
            u, v = e.ends
            adj[u].append((e, v))
            adj[v].append((e, u))
    return adj


def _bfs_forest(adj):
    """BFS forest of a link adjacency, one tree per component rooted at its
    lowest vertex and grown in adjacency order.  Returns (parent, root,
    depth): parent[v] is (link to the parent, parent vertex), None at a root."""
    n = len(adj)
    parent = [None] * n
    root = [-1] * n
    depth = [0] * n
    for r in range(n):
        if root[r] >= 0:
            continue
        root[r] = r
        queue = [r]
        for v in queue:
            for e, w in adj[v]:
                if root[w] < 0:
                    root[w] = r
                    parent[w] = (e, v)
                    depth[w] = depth[v] + 1
                    queue.append(w)
    return parent, root, depth


DFS_ROOT, DFS_TREE, DFS_BACK, DFS_DONE = range(4)


def _dfs(adj):
    """Depth-first search of a link adjacency with an explicit stack, so
    that long paths need no deep recursion.  Roots are taken in vertex order
    and neighbours in adjacency order.  Yields steps (step, v, e, w):

    - (DFS_ROOT, None, None, r): a new tree starts at r;
    - (DFS_TREE, v, e, w): link e discovers w as a child of v;
    - (DFS_BACK, v, e, w): non-tree link e runs from v up to its ancestor w,
      reported once, from its lower end;
    - (DFS_DONE, v, e, w): the subtree of w is finished; v is w's parent and
      e the tree link between them (both None at a root).

    Every non-tree link of an undirected DFS joins a vertex to an ancestor.
    """
    n = len(adj)
    disc = [-1] * n
    counter = 0
    for r in range(n):
        if disc[r] >= 0:
            continue
        disc[r] = counter
        counter += 1
        yield DFS_ROOT, None, None, r
        frames = [(r, None, iter(adj[r]))]  # (vertex, link from parent, links left)
        while frames:
            v, via, todo = frames[-1]
            for e, w in todo:
                if e is via:
                    continue
                if disc[w] < 0:
                    disc[w] = counter
                    counter += 1
                    yield DFS_TREE, v, e, w
                    frames.append((w, e, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    yield DFS_BACK, v, e, w
            else:
                frames.pop()
                yield DFS_DONE, (frames[-1][0] if frames else None), via, v


def _potential(g: SignedGraph, s=None):
    """Switching potential of (V, s) from one BFS over the links of s.

    Returns (zeta, root, unbalanced).  zeta[v] in {+1, -1} makes every BFS
    tree link positive; root[v] is the lowest vertex of v's component, which
    gets zeta = +1; unbalanced holds the roots of components that carry a
    half edge or a link or loop e with zeta(u) sigma(e) zeta(v) = -1.  On a
    balanced component zeta is the unique such potential, whatever the tree.
    """
    edges = g.edges if s is None else g.restricted(s)
    adj = [[] for _ in range(g.n)]
    for e in edges:
        if e.kind is EdgeKind.LINK:
            u, v = e.ends
            adj[u].append((v, e.sign))
            adj[v].append((u, e.sign))
    zeta = [0] * g.n
    root = list(range(g.n))
    for r in range(g.n):
        if zeta[r]:
            continue
        zeta[r] = 1
        queue = [r]
        for v in queue:
            for w, sign in adj[v]:
                if not zeta[w]:
                    zeta[w] = zeta[v] * sign
                    root[w] = r
                    queue.append(w)
    unbalanced = set()
    for e in edges:
        if e.kind is EdgeKind.HALF:
            unbalanced.add(root[e.ends[0]])
        elif e.ends and zeta[e.ends[0]] * e.sign * zeta[e.ends[1]] == -1:
            unbalanced.add(root[e.ends[0]])
    return zeta, root, unbalanced


def components(g: SignedGraph, s=None):
    """Components of (V, s) as sorted vertex tuples, ordered by lowest vertex.
    Loose edges do not connect anything and are not components; isolated
    vertices are."""
    _, root, _ = _potential(g, s)
    groups = {}
    for v in range(g.n):
        groups.setdefault(root[v], []).append(v)
    return [tuple(vs) for vs in groups.values()]


def _relabel(n, edges, vmap):
    """The graph of order n on edges whose ends move by vmap (old vertex ->
    new vertex, or None to drop that end).  A link whose ends meet becomes a
    loop; an ordinary or half edge that loses ends becomes a half or loose
    edge."""
    out = []
    for e in edges:
        ends = tuple(vmap[v] for v in e.ends if vmap[v] is not None)
        if len(ends) < len(e.ends):
            kind = EdgeKind.HALF if ends else EdgeKind.LOOSE
            out.append(Edge(e.id, kind, ends))
        else:
            kind = EdgeKind.LOOP if e.kind is EdgeKind.LINK and ends[0] == ends[1] else e.kind
            out.append(Edge(e.id, kind, ends, e.sign))
    return SignedGraph(n, out)


def delete_vertices(g: SignedGraph, w) -> SignedGraph:
    """Remove the vertices of w and every edge with an endpoint in w; the
    remaining vertices are renumbered in order."""
    w = frozenset(w)
    keep = [v for v in range(g.n) if v not in w]
    relabel = {v: i for i, v in enumerate(keep)}
    return _relabel(len(keep), (e for e in g.edges if w.isdisjoint(e.ends)), relabel)


def edge_set_sign(g: SignedGraph, s) -> int:
    """Product of signs over an edge set (no repetition); empty product is +1."""
    sign = 1
    for e in g.restricted(s):
        if not e.is_ordinary:
            raise SgError(f"edge {e.id!r} ({e.kind.name.lower()}) has no sign")
        sign *= e.sign
    return sign


def enumerate_circles(g: SignedGraph, s=None, cap=DEFAULT_CIRCLE_CAP):
    """All circles with edges inside s, each once, in canonical order.

    Loops are circles of length 1 and parallel pairs are circles (digons) of
    length 2.  Canonical order: by sorted edge-id tuple.
    """
    edges = g.edges if s is None else g.restricted(s)
    if len(edges) > cap:
        raise SgError(f"circle enumeration cap exceeded ({len(edges)} > {cap})")

    circles = {frozenset([e.id]) for e in edges if e.kind is EdgeKind.LOOP}
    adj = _link_adjacency(g.n, edges)

    def dfs(start, v, visited, path):
        for e, w in adj[v]:
            if e.id in path:
                continue
            if w == start:
                circles.add(frozenset(path) | {e.id})
            elif w > start and w not in visited:
                dfs(start, w, visited | {w}, path + [e.id])

    for start in range(g.n):
        dfs(start, start, {start}, [])

    return sorted(circles, key=lambda c: tuple(sorted(c)))


def circle_sign(g: SignedGraph, circle) -> int:
    return edge_set_sign(g, circle)


def spanning_forest(g: SignedGraph, s=None):
    """Maximal forest within s, chosen by BFS from the lowest vertex index,
    scanning edges in id order."""
    edges = g.edges if s is None else g.restricted(s)
    parent, _, _ = _bfs_forest(_link_adjacency(g.n, sorted(edges, key=lambda e: e.id)))
    return frozenset(p[0].id for p in parent if p)


def fundamental_system(g: SignedGraph, t):
    """Map each non-tree ordinary edge e to the unique circle in t + e."""
    t = frozenset(t)
    tree = g.restricted(t)
    parent, root, depth = _bfs_forest(_link_adjacency(g.n, tree))
    if sum(p is not None for p in parent) != len(tree):  # a non-link or a circle
        raise SgError("t is not a forest")
    system = {}
    for e in g.edges:
        if not e.is_ordinary or e.id in t:
            continue
        u, v = e.ends
        if root[u] != root[v]:
            raise SgError(f"t is not maximal: {e.id!r} joins two trees")
        circle = {e.id}
        while u != v:  # climb from the deeper end to the common ancestor
            if depth[u] < depth[v]:
                u, v = v, u
            f, u = parent[u]
            circle.add(f.id)
        system[e.id] = frozenset(circle)
    return system
