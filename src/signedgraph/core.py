"""Core data model: signed graphs with all four edge kinds.

Vertices are dense integers 0..n-1 internally; the text format is 1-based.
Edges carry user-visible string ids so subsets and reports are traceable.
All values are immutable after construction and every operation is a pure
function, so concurrent use is safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

DEFAULT_CIRCLE_CAP = 20


class SgError(Exception):
    """Domain error (bad input, cap exceeded, invalid reference)."""


class EdgeKind(Enum):
    LINK = "link"
    LOOP = "loop"
    HALF = "half"
    LOOSE = "loose"


@dataclass(frozen=True)
class Edge:
    """One edge: a link (2 distinct ends), loop (2 equal ends), half (1), or loose (0).

    Links and loops carry a sign in {+1, -1}; half and loose edges are unsigned.
    """

    id: str
    kind: EdgeKind
    ends: tuple  # vertex indices, length 2 / 2 / 1 / 0
    sign: Optional[int] = None

    def __post_init__(self):
        k = self.kind
        if k is EdgeKind.LINK:
            if len(self.ends) != 2 or self.ends[0] == self.ends[1]:
                raise SgError(f"link {self.id!r} needs two distinct endpoints")
        elif k is EdgeKind.LOOP:
            if len(self.ends) != 2 or self.ends[0] != self.ends[1]:
                raise SgError(f"loop {self.id!r} needs two equal endpoints")
        elif k is EdgeKind.HALF:
            if len(self.ends) != 1:
                raise SgError(f"half edge {self.id!r} needs one endpoint")
        else:
            if len(self.ends) != 0:
                raise SgError(f"loose edge {self.id!r} has no endpoints")
        if self.is_ordinary:
            if self.sign not in (1, -1):
                raise SgError(f"edge {self.id!r} needs a sign in {{+1,-1}}")
        elif self.sign is not None:
            raise SgError(f"{k.name.lower()} edge {self.id!r} cannot carry a sign")

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
        text = text.decode("utf-8")
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
            if len(fields) != 2 or not fields[1].isdigit():
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


def delete_vertices(g: SignedGraph, w) -> SignedGraph:
    """Remove the vertices of w and every edge with an endpoint in w; the
    remaining vertices are renumbered in order."""
    w = frozenset(w)
    keep = [v for v in range(g.n) if v not in w]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = [
        Edge(e.id, e.kind, tuple(relabel[v] for v in e.ends), e.sign)
        for e in g.edges
        if not any(v in w for v in e.ends)
    ]
    return SignedGraph(len(keep), edges)


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
    ids = g.edge_ids if s is None else frozenset(s)
    edges = g.restricted(ids)
    if len(edges) > cap:
        raise SgError(f"circle enumeration cap exceeded ({len(edges)} > {cap})")

    circles = set()
    adj = {}  # vertex -> list of (edge id, other endpoint)
    for e in edges:
        if e.kind is EdgeKind.LOOP:
            circles.add(frozenset([e.id]))
        elif e.kind is EdgeKind.LINK:
            u, v = e.ends
            adj.setdefault(u, []).append((e.id, v))
            adj.setdefault(v, []).append((e.id, u))

    def dfs(start, v, visited, path):
        for eid, w in adj.get(v, ()):
            if eid in path:
                continue
            if w == start:
                circles.add(frozenset(path) | {eid})
            elif w > start and w not in visited:
                dfs(start, w, visited | {w}, path + [eid])

    for start in sorted(adj):
        dfs(start, start, {start}, [])

    return sorted(circles, key=lambda c: tuple(sorted(c)))


def circle_sign(g: SignedGraph, circle) -> int:
    return edge_set_sign(g, circle)


def spanning_forest(g: SignedGraph, s=None):
    """Maximal forest within s, chosen by BFS from the lowest vertex index,
    scanning edges in id order."""
    ids = g.edge_ids if s is None else frozenset(s)
    adj = {}
    for e in sorted(g.restricted(ids), key=lambda e: e.id):
        if e.kind is EdgeKind.LINK:
            u, v = e.ends
            adj.setdefault(u, []).append((e.id, v))
            adj.setdefault(v, []).append((e.id, u))
    forest = set()
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid, w in adj.get(v, ()):
                if not seen[w]:
                    seen[w] = True
                    forest.add(eid)
                    queue.append(w)
    return frozenset(forest)


def tree_paths(g: SignedGraph, t):
    """For a forest t: per-vertex (root, path edge ids, path sign) by BFS."""
    adj = {}
    for e in sorted(g.restricted(t), key=lambda e: e.id):
        if e.kind is not EdgeKind.LINK:
            raise SgError(f"forest may contain links only, got {e.id!r}")
        u, v = e.ends
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    info = {}
    for root in range(g.n):
        if root in info:
            continue
        info[root] = (root, frozenset(), 1)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            _, path, sign = info[v]
            for e, w in adj.get(v, ()):
                if w not in info:
                    info[w] = (root, path | {e.id}, sign * e.sign)
                    queue.append(w)
    return info


def _is_forest(g: SignedGraph, t):
    edges = g.restricted(t)
    if any(e.kind is not EdgeKind.LINK for e in edges):
        return False
    parent = list(range(g.n))
    for e in edges:
        a, b = _find(parent, e.ends[0]), _find(parent, e.ends[1])
        if a == b:
            return False
        parent[max(a, b)] = min(a, b)
    return True


def fundamental_system(g: SignedGraph, t):
    """Map each non-tree ordinary edge e to the unique circle in t + e."""
    t = frozenset(t)
    if not _is_forest(g, t):
        raise SgError("t is not a forest")
    info = tree_paths(g, t)
    system = {}
    for e in g.edges:
        if not e.is_ordinary or e.id in t:
            continue
        if e.kind is EdgeKind.LOOP:
            system[e.id] = frozenset([e.id])
            continue
        u, v = e.ends
        ru, pu, _ = info[u]
        rv, pv, _ = info[v]
        if ru != rv:
            raise SgError(f"t is not maximal: {e.id!r} joins two trees")
        system[e.id] = (pu ^ pv) | {e.id}
    return system
