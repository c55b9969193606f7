"""Reference answers computed by the benchmark, independently of the library.

Everything here works on ``gen.Graph`` tuples.  The central piece is a
union-find with parity (the Harary-Kabell balance test): it gives balanced
components, V0, switching potentials and hence rank, closure, contraction,
and the subset expansions the polynomial checks use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class ParityUF:
    """Union-find over vertices with the parity of each vertex relative to
    its root, and a flag per root marking an unbalanced component."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.par = [0] * n  # 0: same sign as parent, 1: opposite
        self.bad = [False] * n

    def find(self, x):
        p = 0
        path = []
        while self.parent[x] != x:
            path.append(x)
            p ^= self.par[x]
            x = self.parent[x]
        root = x
        # compress: recompute each node's parity to the root
        acc = p
        for y in path:
            old = self.par[y]
            self.par[y] = acc
            self.parent[y] = root
            acc ^= old
        return root, p

    def add(self, kind, ends, sign):
        if kind == "loose":
            return
        if kind == "half" or (kind == "loop" and sign < 0):
            self.bad[self.find(ends[0])[0]] = True
            return
        if kind == "loop":
            return
        (ru, pu), (rv, pv) = self.find(ends[0]), self.find(ends[1])
        want = 0 if sign > 0 else 1
        if ru == rv:
            if pu ^ pv != want:
                self.bad[ru] = True
            return
        self.parent[rv] = ru
        self.par[rv] = pu ^ pv ^ want
        self.bad[ru] = self.bad[ru] or self.bad[rv]


def partition(g, s=None):
    """(balanced components as a frozenset of frozensets, V0, potential)
    for the spanning subgraph (V, s); s None means all edges.  The potential
    is +1 at the lowest vertex of each balanced component."""
    uf = ParityUF(g.n)
    keep = None if s is None else set(s)
    for eid, kind, ends, sign in g.edges:
        if keep is None or eid in keep:
            uf.add(kind, ends, sign)
    groups = {}
    for v in range(g.n):
        groups.setdefault(uf.find(v)[0], []).append(v)
    balanced, v0, zeta = set(), set(), {}
    for root, vs in groups.items():
        if uf.bad[root]:
            v0.update(vs)
            continue
        balanced.add(frozenset(vs))
        p0 = uf.find(vs[0])[1]
        for v in vs:
            zeta[v] = -1 if uf.find(v)[1] ^ p0 else 1
    return frozenset(balanced), frozenset(v0), zeta


def b_of(g, s=None):
    return len(partition(g, s)[0])


def rank(g, s=None):
    return g.n - b_of(g, s)


def is_balanced(g, s=None):
    return not partition(g, s)[1]


def switch(g, x):
    """Edges of g switched at vertex set x, in order."""
    x = set(x)
    out = []
    for eid, kind, ends, sign in g.edges:
        if kind == "link" and (ends[0] in x) != (ends[1] in x):
            sign = -sign
        out.append((eid, kind, ends, sign))
    return tuple(out)


def closure(g, s):
    """Frame-matroid closure from switching potentials: S, loose edges, every
    edge inside V0(S), and every edge inside a balanced component of S that
    is positive after switching by the component's potential."""
    balanced, v0, zeta = partition(g, s)
    comp = {v: i for i, c in enumerate(balanced) for v in c}
    out = set(s)
    for eid, kind, ends, sign in g.edges:
        if kind == "loose" or (ends and all(v in v0 for v in ends)):
            out.add(eid)
        elif kind == "link" and ends[0] in comp and comp.get(ends[1]) == comp[ends[0]]:
            if zeta[ends[0]] * sign * zeta[ends[1]] == 1:
                out.add(eid)
        elif kind == "loop" and sign > 0 and ends[0] in comp:
            out.add(eid)
    return frozenset(out)


def contract(g, s):
    """(order, edges) of g / s under the library's canonical representative:
    balanced components of s become vertices numbered by lowest member, each
    switched to its potential; V0(s) vertices vanish."""
    s = set(s)
    balanced, v0, zeta = partition(g, s)
    blocks = sorted(balanced, key=min)
    vmap = {v: None for v in v0}
    for i, blk in enumerate(blocks):
        for v in blk:
            vmap[v] = i
    out = []
    for eid, kind, ends, sign in g.edges:
        if eid in s:
            continue
        new = tuple(vmap[v] for v in ends if vmap[v] is not None)
        if kind in ("link", "loop"):
            sgn = zeta.get(ends[0], 1) * sign * zeta.get(ends[1], 1)
            if len(new) == 2:
                out.append((eid, "link" if new[0] != new[1] else "loop", new, sgn))
            else:
                out.append((eid, "half" if new else "loose", new, None))
        elif kind == "half":
            out.append((eid, "half" if new else "loose", new, None))
        else:
            out.append((eid, kind, ends, sign))
    return len(blocks), tuple(out), vmap


def classify_balancing_edges(g):
    base = partition(g)
    out = {}
    for eid in g.ids():
        part = partition(g, [x for x in g.ids() if x != eid])
        if not base[1] and not part[1]:
            out[eid] = "none"
        elif not part[1]:
            out[eid] = "total"
        elif len(part[0]) > len(base[0]):
            out[eid] = "partial"
        else:
            out[eid] = "none"
    return out


def harary_ok(g, sides):
    """True iff sides is a Harary bipartition of g: a partition of V with the
    part holding vertex 0 first and exactly the negative links crossing."""
    v1, v2 = (set(x) for x in sides)
    if v1 & v2 or v1 | v2 != set(range(g.n)) or (g.n and 0 not in v1):
        return False
    for eid, kind, ends, sign in g.edges:
        if kind == "half" or (kind == "loop" and sign < 0):
            return False
        if kind == "link" and ((ends[0] in v1) == (ends[1] in v1)) != (sign > 0):
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials as ascending integer coefficient lists


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def from_roots(roots):
    p = [1]
    for r in roots:
        p = poly_mul(p, [-r, 1])
    return p


def poly_eval(c, x):
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def pm_kn_chi(n):
    """chi of +-K_n: (l-1)(l-3)...(l-2n+3)(l-n+1)."""
    return from_roots([2 * i - 1 for i in range(1, n)] + [n - 1])


def pm_kn_chi_star(n):
    return from_roots([2 * i for i in range(n)])


def pm_kn_full_chi(n):
    return from_roots([2 * i - 1 for i in range(1, n + 1)])


def subset_expansion(g, zero_free=False):
    """sum over S of (-1)^|S| l^b(S), balanced S only when zero_free, with b
    from the parity union-find.  Exponential in m: desk graphs only."""
    ids = g.ids()
    coeffs = [0] * (g.n + 1)
    for r in range(len(ids) + 1):
        for s in combinations(ids, r):
            bal, v0, _ = partition(g, s)
            if zero_free and v0:
                continue
            coeffs[len(bal)] += -1 if r % 2 else 1
    return poly_trim(coeffs)


def format_poly(c, var="λ"):
    """The library's canonical descending form, for the text checks."""
    if not c:
        return "0"
    parts = []
    for d in range(len(c) - 1, -1, -1):
        a = c[d]
        if a == 0:
            continue
        mag = abs(a)
        stem = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
        body = str(mag) if d == 0 else (stem if mag == 1 else f"{mag}{stem}")
        parts.append((body if a > 0 else f"-{body}") if not parts else (f"+ {body}" if a > 0 else f"- {body}"))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# frame circuits, matrices, determinants


def frame_circuits(g):
    """All frame circuits as edge-id frozensets, by brute force over subsets:
    dependent (rank < size) with every one-smaller subset independent."""
    ids = g.ids()
    out = set()
    for r in range(1, len(ids) + 1):
        for s in combinations(ids, r):
            if any(c <= set(s) for c in out):
                continue
            if rank(g, s) < r:
                out.add(frozenset(s))
    return out


def edge_vector(g, e):
    eid, kind, ends, sign = e
    vec = [0] * g.n
    if kind == "link":
        i, j = min(ends), max(ends)
        vec[i], vec[j] = 1, -sign
    elif kind == "loop" and sign < 0:
        vec[ends[0]] = 2
    elif kind == "half":
        vec[ends[0]] = 1
    return vec


def matrices(g):
    """incidence, adjacency, degree, laplacian as nested int lists."""
    cols = [edge_vector(g, e) for e in g.edges]
    inc = [[c[v] for c in cols] for v in range(g.n)]
    adj = [[0] * g.n for _ in range(g.n)]
    deg = [[0] * g.n for _ in range(g.n)]
    for eid, kind, ends, sign in g.edges:
        if kind == "link":
            u, v = ends
            adj[u][v] += sign
            adj[v][u] += sign
            deg[u][u] += 1
            deg[v][v] += 1
        elif kind == "loop":
            adj[ends[0]][ends[0]] += 2 * sign
            deg[ends[0]][ends[0]] += 2
        elif kind == "half":
            adj[ends[0]][ends[0]] += 1
            deg[ends[0]][ends[0]] += 2
    lap = [[deg[i][j] - adj[i][j] for j in range(g.n)] for i in range(g.n)]
    return {"incidence": inc, "adjacency": adj, "degree": deg, "laplacian": lap}


def determinant(m):
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return int(det)


def matrix_tree_counts(g):
    """circle counts b_i: n-edge independent sets whose components include
    exactly i without a half edge (each such component holds one circle)."""
    counts = [0] * (g.n + 1)
    by_id = {e[0]: e for e in g.edges}
    for s in combinations(g.ids(), g.n):
        if rank(g, s) < g.n:
            continue
        uf = ParityUF(g.n)
        halves = set()
        for eid in s:
            uf.add(*by_id[eid][1:])
        for eid in s:
            if by_id[eid][1] == "half":
                halves.add(uf.find(by_id[eid][2][0])[0])
        roots = {uf.find(v)[0] for v in range(g.n)}
        counts[len(roots - halves)] += 1
    return counts


def is_psd(m):
    """Exact positive-semidefiniteness of a symmetric rational matrix by
    symmetric elimination: a negative pivot, or a zero pivot whose row is
    not zero, proves it indefinite."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] < 0:
            return False
        if a[k][k] == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


def switching_equivalent_under(g1_edges, g2_edges, n):
    """True iff the two edge lists (ids ignored) on the same n vertices have
    the same underlying multigraph and differ by a switching."""
    def key(e):
        return (e[1], tuple(sorted(e[2])))

    c1, c2 = {}, {}
    for c, edges in ((c1, g1_edges), (c2, g2_edges)):
        for e in edges:
            c.setdefault(key(e), []).append(e[3] or 0)
    if {k: len(v) for k, v in c1.items()} != {k: len(v) for k, v in c2.items()}:
        return False
    uf = ParityUF(n)
    for k, s1 in c1.items():
        kind, ends = k
        if kind not in ("link", "loop"):
            continue
        s1, s2 = sorted(s1), sorted(c2[k])
        same, flipped = s1 == s2, s1 == sorted(-x for x in s2)
        if kind == "loop":
            if not same:
                return False
        elif same and flipped:
            continue
        elif same or flipped:
            uf.add("link", ends, 1 if same else -1)
        else:
            return False
    return not any(uf.bad[uf.find(v)[0]] for v in range(n))
