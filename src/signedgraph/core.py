"""Core data model: signed graphs with all four edge kinds.

Vertices are dense integers 0..n-1 internally; the text format is 1-based.
Edges carry user-visible string ids so subsets and reports are traceable.
All values are immutable after construction and every operation is a pure
function, so concurrent use is safe.

The public constructors (`Edge`, `SignedGraph`, `link`/`loop`/`half`/`loose`,
`with_edges`) validate everything.  `_edge` and `_graph` skip the checks and
are only for data derived from a validated graph, or from a line that `parse`
has already checked.  Only core calls `_edge`: the parser, and `_relabel` for
minors and switchings alike.  A derived graph shares the edges whose ends and
sign it leaves unchanged, as edges are immutable.
Core has two link searches: `_switching_bfs`, on int-coded links, for
potentials and spectrum blocks, and `_dfs`, for blocks, balancing and
forests.  Hot loops compare kinds with the module constants `_LINK`, `_LOOP`,
`_HALF` and `_LOOSE`, which read faster than `EdgeKind` members.

Every record of the library is a `_Record`, and its fields are set only by
the one constructor `_Record.__init__`, except in `Edge` and `SignedGraph`,
which set their own slots here (see `_Record`).

Inputs: a wrong value, a bad shape or an order over a cap raises SgError
naming it, as does a count or a vertex that is not an int; any other wrong type
raises TypeError.  Each rule is written once: `_count`, `_vertices`, `_pairs`
(a simple edge list), `_ids`, `_cap` and `matrices._rows` (a matrix's shape
and entries).

`_UndoableUnionFind` is the library's one union-find.  The walks over edge
subsets (`oracles.chromatic_poly_subset`, `frame.closed_sets`,
`matrices.matrix_tree`) add and undo one edge per step on it, at O(log n)
each, instead of rebuilding b(S) or the closure for every subset;
`linegraph.switching_isomorphic` keeps on it the switching factors that its
partial vertex map forces, and undoes them when it backs up.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter

# Every cap on an exponential routine or on sgtool's input: name -> (limit, quantity).
CAPS = {
    "circle enumeration": (20, "edges"),  # enumerate_circles, has_two_disjoint_negative_circles
    "frame-circuit enumeration": (10, "vertices"),  # enumerate_frame_circuits
    "frame-circuit edge": (20, "edges"),  # enumerate_frame_circuits, oracles.closure_by_circuits (S + e)
    "closed-set": (16, "edges"),  # closed_sets, the all-negative catalog's flats
    "balancing-set": (20, "component order"),  # min_balancing_set, per unbalanced component
    "exhaustive balancing-set": (20, "edges"),  # oracles.min_balancing_set_exhaustive
    "orientation": (24, "edge ends"),  # is_acyclic, oracles.enumerate_acyclic
    "coloration": (2_000_000, "colorations"),  # count_proper, oracles.max_used_pairs_bruteforce
    "subset-expansion": (20, "edges"),  # oracles.chromatic_poly_subset
    "region-oracle": (6, "vertices"),  # oracles' signed-permutation points
    "matrix-tree": (8, "vertices"),  # matrix_tree
    "matrix-tree set": (1 << 20, "n-edge sets"),  # matrix_tree's walk over C(m, n) edge sets
    "matching": (20, "vertices"),  # coloring.max_matching_size, so color_pair_capacity
    "dense-matrix": (2048, "vertices"),  # matrices._dense: the graph matrices, line_adjacency_identity
    "spectrum block": (128, "vertices"),  # matrices.spectrum, per block of the nonzero pattern
    "deletion-contraction": (20_000, "states"),  # coloring._delcon's memo
    # coloring._delcon's recursion depth: a tracer that wraps it in two more
    # functions makes a level cost three frames, 3 * 257 of the default 1000
    "deletion-contraction link": (256, "links"),
    "stable-set": (1 << 15, "stable sets"),  # oracles.chromatic_via_expansion's walk
    "switching-isomorphism": (1 << 15, "candidates"),  # linegraph.switching_isomorphic's (v, w) tries
    "root-system": (32, "dimension"),  # angle.root_system
    "input-edge": (64, "edges"),  # sgtool's input and catalog --n, unless --max-edges sets it
    "input-vertex": (10**6, "vertices"),  # parse and SignedGraph
    "complete-graph": (1 << 15, "pairs"),  # coloring.complete_graph_edges, so plus_minus_kn(_full)
}
_id_ok = re.compile(r"[^\s#,]+").fullmatch
_BAD_ID = "bad edge id {!r}: need a nonempty string without whitespace, '#', ','"


class SgError(Exception):
    """Domain error (bad input, an exceeded cap, an invalid reference)."""


def _cap(name, used, limit=None):
    """Raise SgError if `used` exceeds cap `name`, or `limit` where a caller sets one."""
    limit = CAPS[name][0] if limit is None else limit
    if used > limit:
        raise SgError(f"{name} cap exceeded ({CAPS[name][1]} {used} > {limit})")


def _ids(s):
    """An edge-id collection as a frozenset.  A str is refused: frozenset
    would read it as one id per character."""
    if isinstance(s, str):
        raise SgError(f"edge ids must be a collection of ids, not the string {s!r}")
    return frozenset(s)


def _count(what, k, low=0):
    """k if it is an int (a bool is not) of at least low, else SgError naming what."""
    if type(k) is not int or k < low:
        raise SgError(f"{what} must be an int >= {low}, got {k!r}")
    return k


def _vertices(n, vs):
    """vs as a frozenset of vertices 0..n-1, in one pass; SgError names the least bad one."""
    vs = frozenset(vs)
    bad = [v for v in vs if type(v) is not int or not 0 <= v < n]
    if bad:
        raise SgError(f"vertex {min(bad, key=repr)!r} out of range")
    return vs


def _pairs(n, edge_list, what):
    """edge_list, a sequence of (u, v), as sorted pairs of `_vertices` with no loop,
    pair twice or item that is not a pair, else SgError; a loop is named before
    its range.  An iterator raises TypeError, as callers read edge_list again."""
    try:
        pairs = [(u, v) if u < v else (v, u) for u, v in edge_list]
    except ValueError:  # an item of fewer or more than two ends
        pairs = None
    if pairs is None or any(u == v for u, v in pairs) or len(set(pairs)) < len(edge_list):
        raise SgError(f"{what} must be simple")
    _vertices(n, (v for p in pairs for v in p))
    return pairs


class EdgeKind(Enum):
    LINK = "link"
    LOOP = "loop"
    HALF = "half"
    LOOSE = "loose"


_LINK, _LOOP, _HALF, _LOOSE = EdgeKind.LINK, EdgeKind.LOOP, EdgeKind.HALF, EdgeKind.LOOSE


# _new makes an instance without running __init__, and _set sets one of its
# slots (see `_edge` and `_graph`); only this module sets a record's slots.
_new = object.__new__
_set = object.__setattr__


class _Record:
    """Base of the library's immutable records, and their one constructor.

    A subclass names its fields in `__slots__`, in constructor order (a slot
    whose name starts with "_" is not a field), and the defaults of trailing
    fields in `_defaults`.  `__init__` takes the fields by position or keyword
    and, as a signature does, raises TypeError on a missing, unknown or doubly
    given one.  A record that checks its arguments calls it after the checks.
    Only `Edge` and `SignedGraph` set their own slots: an edge is built once
    per edge, and a graph also keeps an id index, which is not a field.

    Fields cannot be reassigned or deleted.  Two records are equal when they
    are of the same class and their field tuples are equal, and a record
    hashes as its field tuple."""

    __slots__ = ()
    _defaults = {}  # field -> default value

    def __init_subclass__(cls):
        cls._fields = fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)  # faster than _set by name
        cls._tail = tuple(cls._defaults[f] for f in fields[len(fields) - len(cls._defaults):])
        get = attrgetter(*fields)
        cls._key = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """One value per field, from args, then kwargs, then `_defaults`."""
        name, fields = cls.__qualname__, cls._fields
        if not kwargs and len(fields) - len(cls._tail) <= len(args) < len(fields):
            return args + cls._tail[len(args) - len(fields):]
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() takes each of {fields} once, got {len(args)} by position and {sorted(kwargs)}")
        values = {**cls._defaults, **kwargs}
        values.update(zip(fields, args))
        if len(values) < len(fields):  # every key is a field now
            raise TypeError(f"{name}() missing fields {[f for f in fields if f not in values]}")
        return [values[f] for f in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key(self)


class Edge(_Record):
    """One edge: a link (2 distinct ends), loop (2 equal ends), half (1), or loose (0).

    Links and loops carry a sign in {+1, -1}; half and loose edges are unsigned.
    The id is a nonempty string without whitespace, "#" or ",": parse splits
    on whitespace and cuts at "#", and CLI edge lists split on ",".
    """

    __slots__ = ("id", "kind", "ends", "sign")  # ends: vertex indices, length 2 / 2 / 1 / 0

    def __init__(self, id, kind, ends, sign=None):
        eid, k = id, kind
        if not isinstance(eid, str) or not _id_ok(eid):
            raise SgError(_BAD_ID.format(eid))
        if type(ends) is not tuple:  # a list would make the edge unhashable
            raise SgError(f"edge {eid!r}: ends must be a tuple, got {type(ends).__name__}")
        if k is _LINK:
            if len(ends) != 2 or ends[0] == ends[1]:
                raise SgError(f"link {eid!r} needs two distinct endpoints")
        elif k is _LOOP:
            if len(ends) != 2 or ends[0] != ends[1]:
                raise SgError(f"loop {eid!r} needs two equal endpoints")
        elif k is _HALF:
            if len(ends) != 1:
                raise SgError(f"half edge {eid!r} needs one endpoint")
        elif k is not _LOOSE:
            raise SgError(f"edge {eid!r}: kind must be an EdgeKind, got {k!r}")
        elif len(ends) != 0:
            raise SgError(f"loose edge {eid!r} has no endpoints")
        if k is _LINK or k is _LOOP:
            if sign not in (1, -1):
                raise SgError(f"edge {eid!r} needs a sign in {{+1,-1}}")
        elif sign is not None:
            raise SgError(f"{k.name.lower()} edge {eid!r} cannot carry a sign")
        _set(self, "id", eid)
        _set(self, "kind", k)
        _set(self, "ends", ends)
        _set(self, "sign", sign)

    @property
    def is_ordinary(self):
        """A link or loop: exactly the edges that carry a sign."""
        return self.sign is not None


def link(eid, u, v, sign):
    return Edge(eid, _LINK, (u, v), sign)


def loop(eid, v, sign):
    return Edge(eid, _LOOP, (v, v), sign)


def half(eid, v):
    return Edge(eid, _HALF, (v,))


def loose(eid):
    return Edge(eid, _LOOSE, ())


class SignedGraph(_Record):
    """A signed graph of order n with an edge sequence (file order preserved)."""

    __slots__ = ("n", "edges", "_by_id")

    def __init__(self, n, edges=()):
        _cap("input-vertex", _count("order n", n))
        seen = {}
        try:  # an item that is not an Edge fails on .id or .ends
            edges = tuple(edges)
            for e in edges:
                eid = e.id
                if eid in seen:
                    raise SgError(f"duplicate edge id {eid!r}")
                seen[eid] = e
                for v in e.ends:
                    if type(v) is not int or not 0 <= v < n:  # bool is not int
                        raise SgError(f"edge {eid!r}: vertex {v!r} out of range")
        except (AttributeError, TypeError):
            raise SgError("edges must be an iterable of Edge objects") from None
        _set(self, "n", n)
        _set(self, "edges", edges)
        _set(self, "_by_id", seen)

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
        s = _ids(s)
        missing = s - self._by_id.keys()
        if missing:
            raise SgError(f"unknown edge ids {sorted(missing)}")
        return tuple(e for e in self.edges if e.id in s)

    def degree(self, v):
        """The number of edge ends at v: a loop counts 2 and a half edge 1.
        `matrices.degree_matrix` counts a half edge 2, as L = H H^T needs."""
        _vertices(self.n, (v,))
        return sum(e.ends.count(v) for e in self.edges)

    def with_edges(self, edges):
        return SignedGraph(self.n, tuple(edges))


_set_id, _set_kind, _set_ends, _set_sign = Edge._setters


def _edge(eid, kind, ends, sign=None):
    """An Edge built without checks, by the slots' own setters: only for data
    derived from a validated graph or a line that `parse` has checked."""
    e = _new(Edge)
    _set_id(e, eid)
    _set_kind(e, kind)
    _set_ends(e, ends)
    _set_sign(e, sign)
    return e


def _graph(n, by_id):
    """A SignedGraph built without checks, on a dict id -> edge in edge
    order whose ends lie in range(n) (see `_edge`); the graph keeps the dict."""
    g = _new(SignedGraph)
    _set(g, "n", n)
    _set(g, "edges", tuple(by_id.values()))
    _set(g, "_by_id", by_id)
    return g


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
    by_id = {}
    saw_magic = False

    def err(lineno, msg):
        raise SgError(f"line {lineno}: {msg}")

    def check_id(eid):  # Edge's id check: split() took the whitespace and the cut the "#"
        if "," in eid:
            raise SgError(_BAD_ID.format(eid))
        return eid

    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
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
            try:
                n = int(fields[1])
            except ValueError:  # more digits than int() converts
                err(lineno, "expected 'n <order>'")
            _cap("input-vertex", n)
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
            kind = _LINK if u != v else _LOOP
            e = _edge(check_id(eid), kind, (u, v), 1 if ss == "+" else -1)
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
            e = _edge(check_id(eid), _HALF, (v,))
        elif directive == "loose":
            if len(fields) != 2:
                err(lineno, "expected 'loose <id>'")
            e = _edge(check_id(fields[1]), _LOOSE, ())
        else:
            err(lineno, f"unknown directive {directive!r}")
        if e.id in by_id:
            err(lineno, f"duplicate edge id {e.id!r}")
        by_id[e.id] = e

    if not saw_magic:
        raise SgError("line 1: expected magic line 'sg 1'")
    if n is None:
        raise SgError("missing 'n' directive")
    return _graph(n, by_id)


def serialize(g: SignedGraph) -> bytes:
    """Deterministic byte serialization; parse(serialize(g)) == g."""
    out = ["sg 1", f"n {g.n}"]
    for e in g.edges:
        if e.sign is not None:
            u, v = e.ends
            s = "+" if e.sign > 0 else "-"
            out.append(f"edge {e.id} {u + 1} {v + 1} {s}")
        elif e.kind is _HALF:
            out.append(f"half {e.id} {e.ends[0] + 1}")
        else:
            out.append(f"loose {e.id}")
    return ("\n".join(out) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# subgraph structure


def _frame_edge(e):
    """e as the undoable union-find takes it: (u, v, p) for a link or loop
    from u to v, p = 0 if positive and 1 if negative; (v, v, 1) for a half
    edge at v, which acts as a negative loop; None for a loose edge."""
    if e.sign is not None:
        return e.ends[0], e.ends[1], 0 if e.sign == 1 else 1
    return (e.ends[0], e.ends[0], 1) if e.ends else None


class _UndoableUnionFind:
    """Union-find with parity over range(n) for growing and shrinking an
    edge set S one edge at a time, as a depth-first walk over edge subsets
    does.  Union by size and no path compression keep each root search at
    O(log n) and let `undo` restore the state exactly.

    parity[v] is 1 when v's potential differs from its parent's, unbal[r]
    marks an unbalanced component at its root r, and comps and unbalanced
    count the components and the unbalanced ones, so at every step
    b(S) = comps - unbalanced and rank(S) = n - b(S)."""

    __slots__ = ("parent", "parity", "size", "unbal", "comps", "unbalanced", "_trail")

    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.size = [1] * n
        self.unbal = [False] * n
        self.comps = n
        self.unbalanced = 0
        self._trail = []

    def add(self, e):
        """Add the edge e, as `_frame_edge` gives it, to S; True iff the rank
        grew, that is iff e is not in clos(S)."""
        if e is None:
            self._trail.append(None)
            return False
        ru, rv, p = e
        parent, parity = self.parent, self.parity
        while parent[ru] != ru:  # to the roots, with p the parity of e read between them
            p ^= parity[ru]
            ru = parent[ru]
        while parent[rv] != rv:
            p ^= parity[rv]
            rv = parent[rv]
        unbal = self.unbal
        if ru == rv:
            if p and not unbal[ru]:  # a negative circle in a balanced component
                unbal[ru] = True
                self.unbalanced += 1
                self._trail.append(ru)
                return True
            self._trail.append(None)
            return False
        size = self.size
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        both = unbal[ru] and unbal[rv]  # a loose handcuff: rank and b stay
        parent[rv] = ru
        parity[rv] = p
        size[ru] += size[rv]
        self._trail.append((rv, unbal[ru]))
        unbal[ru] = unbal[ru] or unbal[rv]
        self.comps -= 1
        self.unbalanced -= both
        return not both

    def undo(self):
        """Revert the last `add` that is not yet undone."""
        step = self._trail.pop()
        if step is None:
            return
        if type(step) is int:
            self.unbal[step] = False
            self.unbalanced -= 1
            return
        rv, was = step
        ru = self.parent[rv]
        self.parent[rv] = rv
        self.parity[rv] = 0
        self.size[ru] -= self.size[rv]
        self.unbalanced += was and self.unbal[rv]
        self.unbal[ru] = was
        self.comps += 1


def _link_adjacency(n, edges):
    """adj[v] lists (link, other end) for each link of edges at v, in the
    order of edges."""
    adj = [[] for _ in range(n)]
    for e in edges:
        if e.kind is _LINK:
            u, v = e.ends
            adj[u].append((e, v))
            adj[v].append((e, u))
    return adj


DFS_ROOT, DFS_TREE, DFS_BACK, DFS_DONE = range(4)


def _dfs(adj):
    """Depth-first search of a link adjacency with an explicit stack (no deep
    recursion on long paths), for blocks, balancing and forests.  Roots in
    vertex order, neighbours in adjacency order.  Yields (step, v, e, w):

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
    adj = [[] for _ in range(g.n)]
    fixed = []  # the vertex of each half edge and negative loop
    for e in g.edges if s is None else g.restricted(s):
        k = e.kind
        if k is _LINK:
            u, v = e.ends
            if e.sign == 1:
                adj[u].append(v)
                adj[v].append(u)
            else:
                adj[u].append(~v)
                adj[v].append(~u)
        elif k is _HALF or (k is _LOOP and e.sign == -1):
            fixed.append(e.ends[0])
    return _switching_bfs(adj, fixed)


def _switching_bfs(adj, fixed):
    """`_potential` on an int-coded link adjacency: adj[v] holds w or ~w for a
    positive or negative link from v to w, in edge order.  A frustrated link
    shows when its later end is scanned; fixed's roots are unbalanced too."""
    n = len(adj)
    zeta = [0] * n
    root = list(range(n))
    unbalanced = set()
    for r in range(n):
        if zeta[r]:
            continue
        zeta[r] = 1
        queue = [r]
        for v in queue:
            z = zeta[v]
            for w in adj[v]:
                want = z
                if w < 0:
                    w, want = ~w, -z
                if not zeta[w]:
                    zeta[w] = want
                    root[w] = r
                    queue.append(w)
                elif zeta[w] != want:
                    unbalanced.add(r)
    unbalanced.update(root[v] for v in fixed)
    return zeta, root, unbalanced


def components(g: SignedGraph, s=None):
    """Components of (V, s) as sorted vertex tuples, ordered by lowest vertex.
    Loose edges do not connect anything and are not components; isolated
    vertices are."""
    _, root, _ = _potential(g, s)
    return [tuple(vs) for vs in _groups(root)]


def _groups(root):
    """The vertices grouped by root[v] as `_potential` gives it, as lists in
    vertex order, by lowest vertex: a group's first vertex is its root."""
    groups = {}
    for v, r in enumerate(root):
        groups.setdefault(r, []).append(v)
    return groups.values()


def _relabel(n, edges, vmap, zeta):
    """The graph of order n on edges of a validated graph whose ends move by
    vmap (old vertex -> new vertex, or None to drop that end; the identity for
    a switching), switched by zeta (old vertex -> +1 or -1).  A link whose ends
    meet becomes a loop, an edge that loses ends a half or loose edge, and an
    edge whose ends and sign stay is kept itself, not copied."""
    out = {}
    for e in edges:
        k = e.kind
        if k is _LINK:
            u, v = e.ends
            a, b = vmap[u], vmap[v]
            if a is None or b is None:
                ends = tuple(x for x in (a, b) if x is not None)
                e = _edge(e.id, _HALF if ends else _LOOSE, ends)
            elif a != u or b != v or zeta[u] != zeta[v]:
                e = _edge(e.id, _LINK if a != b else _LOOP, (a, b), zeta[u] * e.sign * zeta[v])
        elif k is not _LOOSE and vmap[e.ends[0]] != e.ends[0]:  # a moved loop or half edge; no switching signs it
            a = vmap[e.ends[0]]
            e = _edge(e.id, _LOOSE, ()) if a is None else _edge(e.id, k, (a,) * len(e.ends), e.sign)
        out[e.id] = e
    return _graph(n, out)


def _edge_vector(e):
    """The canonical edge vector x(e), a column of the incidence matrix, as
    (vertex, entry) pairs: +1 at a link's lower end and -sigma at its higher
    end, 2 for a negative loop, 1 for a half edge, none for a positive loop or
    a loose edge.  Its zero set is e's hyperplane, gamma . x(e) != 0 is e's
    coloring constraint, and a link's or half edge's entries are its tau."""
    k = e.kind
    if k is _LINK:
        u, v = e.ends
        return ((u, 1), (v, -e.sign)) if u < v else ((v, 1), (u, -e.sign))
    if k is _HALF:
        return ((e.ends[0], 1),)
    if k is _LOOP and e.sign == -1:
        return ((e.ends[0], 2),)
    return ()


def edge_set_sign(g: SignedGraph, s) -> int:
    """Product of signs over an edge set (no repetition); empty product is +1."""
    sign = 1
    for e in g.restricted(s):
        if not e.is_ordinary:
            raise SgError(f"edge {e.id!r} ({e.kind.name.lower()}) has no sign")
        sign *= e.sign
    return sign


def _signed_circles(n, edges):
    """Each circle of (n, edges) once, as (edge ids, vertex set, sign), in
    canonical order: by sorted edge-id tuple.  Loops are circles of length 1
    and parallel pairs are circles (digons) of length 2.  Each longer circle
    is walked from its lowest vertex, through higher vertices only."""
    found = {frozenset([e.id]): (frozenset(e.ends), e.sign) for e in edges if e.kind is _LOOP}
    adj = _link_adjacency(n, edges)

    def walk(start, v, verts, path, sign):
        for e, w in adj[v]:
            if e.id in path:
                continue
            if w == start:
                found[frozenset(path) | {e.id}] = (verts, sign * e.sign)
            elif w > start and w not in verts:
                walk(start, w, verts | {w}, path + [e.id], sign * e.sign)

    for start in range(n):
        walk(start, start, frozenset([start]), [], 1)
    for c in sorted(found, key=lambda c: tuple(sorted(c))):
        yield (c, *found[c])


def _negative_circles(edges, signed_circles):
    """(edge ids, vertex set) of each negative circle among signed_circles
    (see `_signed_circles`), then of each half edge of edges."""
    out = [(c, verts) for c, verts, sign in signed_circles if sign == -1]
    out += [(frozenset([e.id]), frozenset(e.ends)) for e in edges if e.kind is _HALF]
    return out


def enumerate_circles(g: SignedGraph, s=None):
    """All circles with edges inside s, each once, in canonical order (see
    `_signed_circles`)."""
    edges = g.edges if s is None else g.restricted(s)
    _cap("circle enumeration", len(edges))
    return [c for c, _, _ in _signed_circles(g.n, edges)]


def circle_sign(g: SignedGraph, circle) -> int:
    return edge_set_sign(g, circle)


def spanning_forest(g: SignedGraph):
    """Maximal forest of g's links: the tree links of `_dfs` over the links
    taken in id order, so from the lowest vertex of each component."""
    adj = _link_adjacency(g.n, sorted(g.edges, key=lambda e: e.id))
    return frozenset(e.id for step, _, e, _ in _dfs(adj) if step == DFS_TREE)


def fundamental_system(g: SignedGraph, t):
    """Map each non-tree ordinary edge e to the unique circle in t + e."""
    t = _ids(t)
    tree = g.restricted(t)
    parent, root, depth = [None] * g.n, list(range(g.n)), [0] * g.n  # of t's `_dfs` forest
    for step, v, e, w in _dfs(_link_adjacency(g.n, tree)):
        if step == DFS_TREE:
            parent[w], root[w], depth[w] = (e, v), root[v], depth[v] + 1
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
