"""Independent routes kept only to cross-check the production ones.

Each function computes by definition or brute force what a production
function computes faster; its docstring names that function.  The tests, the
benchmark and the CLI flags `chromatic --algorithm subset|expansion` and
`regions --oracle` compare the two.  No production module imports this one
at module level, so a run that asks for no oracle never loads it; and this
module imports `frame` and `orientation` where it uses them, so a chromatic
oracle loads neither.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .core import EdgeKind, SgError, SignedGraph, delete_vertices, edge_set_sign, enumerate_circles
from .balance import balance_partition
from .coloring import DEFAULT_COUNT_CAP, _constraints, _delcon, is_proper, make_signed
from .polynomial import IntPolynomial


def chromatic_poly_subset(g: SignedGraph, zero_free=False, edge_cap=20) -> IntPolynomial:
    """Sum over edge subsets of (-1)^|S| lambda^{b(S)} (balanced S only for
    the zero-free polynomial).  Oracle for coloring.chromatic_poly_delcon."""
    ids = sorted(g.edge_ids)
    if len(ids) > edge_cap:
        raise SgError(f"subset-expansion cap exceeded ({len(ids)} > {edge_cap})")
    coeffs = [0] * (g.n + 1)
    for mask in range(1 << len(ids)):
        s = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        part = balance_partition(g, s)
        if zero_free and part.v0:
            continue
        coeffs[part.b] += (-1) ** len(s)
    return IntPolynomial(coeffs)


def stable_vertex_sets(g: SignedGraph):
    """Vertex sets W such that no non-loose edge has all endpoints inside W,
    by size, then lexicographically."""
    ends = [frozenset(e.ends) for e in g.edges if e.ends]
    subsets = (frozenset(c) for r in range(g.n + 1) for c in combinations(range(g.n), r))
    return [w for w in subsets if not any(s <= w for s in ends)]


def chromatic_via_expansion(g: SignedGraph) -> IntPolynomial:
    """chi(lambda) = sum over stable W of chi*_{g - W}(lambda - 1); the sum
    is taken first and shifted once.  One deletion-contraction memo serves
    every g - W, since its key is the whole constraint state.  Oracle for
    coloring.chromatic_poly_delcon."""
    total = IntPolynomial.zero()
    memo = {}
    for w in stable_vertex_sets(g):
        h = delete_vertices(g, w)
        cons = _constraints(h, True)
        if cons is not None:
            total = total + IntPolynomial(_delcon((h.n, cons), True, memo))
    return total.compose_affine(1, -1).as_int()


def count_regions_by_sign_vectors(g: SignedGraph, n_cap=6) -> int:
    """Exact region count: distinct sign vectors of all signed-permutation
    points (coordinates are distinct values 1..n with arbitrary signs).

    Every region of a subarrangement of the full B_n reflection arrangement
    contains such a point, and no such point lies on any hyperplane here (each
    has the form x_j = ±x_i or x_i = 0), so this count is exact.  Oracle for
    (-1)^n p(-1) in orientation.region_count."""
    if g.n > n_cap:
        raise SgError(f"region-oracle cap exceeded (n = {g.n} > {n_cap})")
    from .orientation import arrangement

    hps = arrangement(g)
    if any(h.kind == "degenerate" for h in hps):
        return 0
    seen = set()
    for perm in permutations(range(1, g.n + 1)):
        for signs in product((1, -1), repeat=g.n):
            x = [s * p for s, p in zip(signs, perm)]
            vec = []
            for h in hps:
                if h.kind == "difference":
                    val = x[h.j] - h.sign * x[h.i]
                else:
                    val = x[h.i]
                vec.append(1 if val > 0 else -1)
            seen.add(tuple(vec))
    return len(seen)


def balance_closure(g: SignedGraph, s, cap=20) -> frozenset:
    """bcl(S): add every edge completing a positive circle inside S, plus
    loose edges.  Oracle for frame.closure on balanced S."""
    s = frozenset(s)
    g.restricted(s)
    out = set(s) | {e.id for e in g.edges if e.kind is EdgeKind.LOOSE}
    for e in g.edges:
        if e.id in out or not e.is_ordinary:
            continue
        for c in enumerate_circles(g, s | {e.id}, cap=cap + 1):
            if e.id in c and edge_set_sign(g, c) == 1:
                out.add(e.id)
                break
    return frozenset(out)


def closure_by_circuits(g: SignedGraph, s) -> frozenset:
    """The frame-circuit form of closure: S plus every e lying on a frame
    circuit inside S + e.  Equal to frame.closure()."""
    from .frame import enumerate_frame_circuits

    s = frozenset(s)
    out = set(s)
    for e in g.edges:
        if e.id in out:
            continue
        sub = g.with_edges(g.restricted(s | {e.id}))
        for fc in enumerate_frame_circuits(sub, n_cap=sub.n, edge_cap=len(s) + 1):
            if e.id in fc.edge_set:
                out.add(e.id)
                break
    return frozenset(out)


def max_used_pairs_bruteforce(n, edge_list, k, cap=DEFAULT_COUNT_CAP) -> int:
    """Max over proper zero-free k-colorations of the all-negative graph of
    the number of magnitudes used with both signs.  Oracle for
    coloring.color_pair_capacity."""
    g = make_signed(n, edge_list, -1)
    colors = [c for c in range(-k, k + 1) if c != 0]
    if len(colors) ** n > cap:
        raise SgError("brute-force cap exceeded")
    best = 0
    for gamma in product(colors, repeat=n):
        if not is_proper(g, gamma):
            continue
        used = set(gamma)
        best = max(best, sum(1 for m in range(1, k + 1) if m in used and -m in used))
    return best


def gf2_rank(m) -> int:
    """Rank over GF(2) of an integer matrix, for the tests' characteristic-2
    checks."""
    rows = [sum((abs(x) % 2) << j for j, x in enumerate(row)) for row in m]
    rank_ = 0
    for col in range(len(m[0]) if m else 0):
        bit = 1 << col
        pivot = next((i for i, r in enumerate(rows) if r & bit), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for i in range(len(rows)):
            if i != rank_ and rows[i] & bit:
                rows[i] ^= rows[rank_]
        rank_ += 1
    return rank_
