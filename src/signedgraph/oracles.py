"""Independent routes kept only to cross-check the production ones.

Each function computes by definition or brute force what a production
function computes faster; its docstring names that function.  The tests, the
benchmark and the CLI flags `chromatic --algorithm subset|expansion`,
`regions --oracle` and `regions --acyclic` compare the two.  No production
module imports this one at module level, so a run that asks for no oracle
never loads it; and this module imports `frame` and `orientation` where it
uses them, so a chromatic oracle loads neither.  The subset expansion keeps
the definition's 2^m terms but walks them on core's undoable union-find, at
O(log n) per subset.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from operator import attrgetter

from .core import (
    CAPS, SignedGraph, _LOOSE, _UndoableUnionFind, _cap, _frame_edge, _ids, edge_set_sign, enumerate_circles,
)
from .balance import is_balanced
from .coloring import _constraints, _cap_depth, _delcon, _proper_colorations, make_signed
from .polynomial import IntPolynomial


def chromatic_poly_subset(g: SignedGraph, zero_free=False) -> IntPolynomial:
    """Sum over edge subsets of (-1)^|S| lambda^{b(S)} (balanced S only for
    the zero-free polynomial).  Oracle for coloring.chromatic_poly_delcon.

    A depth-first include/exclude walk over the id-sorted edges grows S on
    one undoable union-find, so each of the 2^m subsets costs one O(log n)
    step rather than a rebuild of b(S).  A zero-free walk leaves a branch
    once S has an unbalanced component, since every superset keeps one."""
    edges = [_frame_edge(e) for e in sorted(g.edges, key=attrgetter("id"))]
    _cap("subset-expansion", len(edges))
    coeffs = [0] * (g.n + 1)
    uf = _UndoableUnionFind(g.n)
    m = len(edges)

    def walk(i, sign):
        if zero_free and uf.unbalanced:
            return
        if i == m:
            coeffs[uf.comps - uf.unbalanced] += sign
            return
        walk(i + 1, sign)
        uf.add(edges[i])
        walk(i + 1, -sign)
        uf.undo()

    walk(0, 1)
    return IntPolynomial(coeffs)


def min_balancing_set_exhaustive(g: SignedGraph) -> frozenset:
    """The first edge set, by size and then by sorted id tuple, whose
    deletion balances g.  Oracle for balance.min_balancing_set."""
    ids = sorted(g.edge_ids)
    _cap("exhaustive balancing-set", len(ids))
    for size in range(len(ids) + 1):  # deleting every edge balances g
        for combo in combinations(ids, size):
            if is_balanced(g, g.edge_ids.difference(combo)):
                return frozenset(combo)


def chromatic_via_expansion(g: SignedGraph) -> IntPolynomial:
    """chi(lambda) = sum over stable W of chi*_{g - W}(lambda - 1): W is a
    vertex set that holds no edge's every end, so no vertex with a half edge
    or a loop.  The sum is taken first and shifted once.  Oracle for
    coloring.chromatic_poly_delcon.

    The walk runs on the constraint triples of g (`coloring._constraints`)
    and decides the vertices in order: each is kept, or put in W when it has
    no (v, v, 0) and no link to a lower vertex in W.  A kept vertex gets its
    number in g - W and adds its links to kept lower vertices, so each
    stable W ends with the constraint state of chi*_{g - W}, and no graph is
    built.  Open branches wait on a list, not on the call stack, so any n
    can be walked; the stable sets visited are capped, first against the 2^f
    that the f vertices in no constraint give alone.  Equal states are
    counted and each is expanded once, on one deletion-contraction memo."""
    cons = _constraints(g, False)
    if cons is None:
        return IntPolynomial.zero()
    _cap_depth(cons)
    n = g.n
    if n - len({x for c in cons for x in c[:2]}) >= CAPS["stable-set"][0].bit_length():
        _cap("stable-set", CAPS["stable-set"][0] + 1)
    lower = [[] for _ in range(n)]  # (u, sigma) for each link (u, v, sigma), at v
    barred = [False] * n  # vertices with a (v, v, 0), never in W
    for u, v, s in cons:
        if s:
            lower[v].append((u, s))
        else:
            barred[v] = True
    counts = {}  # the constraint state of g - W: how many stable W give it
    label = [0] * n  # a kept vertex's number in g - W; -1 in W
    trail = []  # the link triples of g - W among the decided vertices
    branches = []  # (v, kept vertices below v, len(trail)): v may go in W
    sets = v = k = 0
    while True:
        if v == n:
            sets += 1
            _cap("stable-set", sets)
            state = k, frozenset(trail)
            counts[state] = counts.get(state, 0) + 1
            if not branches:
                break
            v, k, t = branches.pop()
            del trail[t:]
            label[v] = -1
            v += 1
            continue
        if not barred[v] and all(label[u] >= 0 for u, _ in lower[v]):
            branches.append((v, k, len(trail)))
        for u, s in lower[v]:
            if label[u] >= 0:
                trail.append((label[u], k, s))
        label[v] = k
        k += 1
        v += 1
    coeffs = [0] * (n + 1)
    memo = {}
    for state, times in counts.items():
        for i, c in enumerate(_delcon(state, True, memo)):
            coeffs[i] += times * c
    return IntPolynomial(coeffs).compose_affine(1, -1).as_int()


def enumerate_acyclic(g: SignedGraph) -> int:
    """Count acyclic orientations: the 2^k masks x over the k non-loose
    edges of `orient(g)`, each tested against circuit tables built once.
    Oracle for (-1)^n p(-1) in orientation.region_count."""
    from .orientation import _acyclic, _circuit_tables, orient

    tables = _circuit_tables(g, orient(g).tau)
    k = sum(1 for e in g.edges if e.kind is not _LOOSE)
    return sum(1 for x in range(1 << k) if _acyclic(tables, x))


def _signed_permutation_points(n):
    """The n!·2^n points whose coordinates are 1..n in some order, each with
    either sign.  Every region of a subarrangement of the full B_n reflection
    arrangement contains such a point, and no such point lies on any
    hyperplane here (each has the form x_j = ±x_i or x_i = 0)."""
    _cap("region-oracle", n)
    return ([s * p for s, p in zip(signs, perm)]
            for perm in permutations(range(1, n + 1)) for signs in product((1, -1), repeat=n))


def count_regions_by_sign_vectors(g: SignedGraph) -> int:
    """Exact region count: distinct sign vectors of all signed-permutation
    points.  Oracle for (-1)^n p(-1) in orientation.region_count."""
    points = _signed_permutation_points(g.n)
    from .orientation import arrangement

    hps = arrangement(g)
    if any(h.kind == "degenerate" for h in hps):
        return 0
    seen = set()
    for x in points:
        vec = []
        for h in hps:
            if h.kind == "difference":
                val = x[h.j] - h.sign * x[h.i]
            else:
                val = x[h.i]
            vec.append(1 if val > 0 else -1)
        seen.add(tuple(vec))
    return len(seen)


def region_witness_point(g: SignedGraph, b):
    """A signed-permutation point interior to R(tau) of the bidirected graph
    b, or None; nonempty exactly when b is acyclic (orientation.is_acyclic).

    R(tau) is the set of x with tau(v_i,e) x_i + tau(v_j,e) x_j > 0 for every
    edge (single-term sum for half edges and loops)."""
    for x in _signed_permutation_points(g.n):
        for e in g.edges:  # a loose edge's sum is empty, so no point fits
            total = sum(
                b.tau[(e.id, slot)] * x[v] for slot, v in enumerate(e.ends)
            )
            if total <= 0:
                break
        else:
            return x
    return None


def balance_closure(g: SignedGraph, s) -> frozenset:
    """bcl(S): add every edge completing a positive circle inside S, plus
    loose edges; |S| < the circle cap.  Oracle for frame.closure on balanced S."""
    s = _ids(s)
    g.restricted(s)
    out = set(s) | {e.id for e in g.edges if e.kind is _LOOSE}
    for e in g.edges:
        if e.id in out or not e.is_ordinary:
            continue
        for c in enumerate_circles(g, s | {e.id}):
            if e.id in c and edge_set_sign(g, c) == 1:
                out.add(e.id)
                break
    return frozenset(out)


def closure_by_circuits(g: SignedGraph, s) -> frozenset:
    """The frame-circuit form of closure: S plus every e lying on a frame circuit
    inside S + e; |S| < the frame-circuit edge cap.  Equal to frame.closure()."""
    from .frame import _frame_circuits

    s = _ids(s)
    _cap("frame-circuit edge", len(s) + 1)
    out = set(s)
    for e in g.edges:
        if e.id in out:
            continue
        sub = g.with_edges(g.restricted(s | {e.id}))
        for fc in _frame_circuits(sub):
            if e.id in fc.edge_set:
                out.add(e.id)
                break
    return frozenset(out)


def max_used_pairs_bruteforce(n, edge_list, k) -> int:
    """Max over proper zero-free k-colorations of the all-negative graph of
    the number of magnitudes used with both signs, at most the coloration
    cap of them.  Oracle for coloring.color_pair_capacity."""
    best = 0
    for gamma in _proper_colorations(make_signed(n, edge_list, -1), k, True):
        used = set(gamma)
        best = max(best, sum(1 for m in range(1, k + 1) if m in used and -m in used))
    return best

