"""Colorations of signed graphs, chromatic polynomials by three independent
algorithms, chromatic numbers, and the catalog of derived-graph families.

Colors live in {-k..-1, 0, 1..k}; the two polynomials are evaluated at
lambda = 2k+1 (with zero) and lambda = 2k (zero-free).  Half-integer
substitutions in the catalog closed forms stay in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .core import EdgeKind, SgError, SignedGraph, _find, delete_vertices, half, link, loop
from .balance import balance_partition
from .minors import contract_edge
from .polynomial import IntPolynomial

DEFAULT_COUNT_CAP = 2_000_000


# ---------------------------------------------------------------------------
# proper colorations and brute-force counting


def is_proper(g: SignedGraph, gamma) -> bool:
    """gamma: sequence of colors indexed by vertex.  False whenever the graph
    has a loose edge or positive loop (no proper colorations exist then)."""
    for e in g.edges:
        if e.kind is EdgeKind.LOOSE:
            return False
        if e.is_ordinary:
            u, v = e.ends
            if gamma[v] == e.sign * gamma[u]:
                return False
        else:  # half edge
            if gamma[e.ends[0]] == 0:
                return False
    return True


def count_proper(g: SignedGraph, k, zero_free=False, cap=DEFAULT_COUNT_CAP) -> int:
    colors = [c for c in range(-k, k + 1) if not (zero_free and c == 0)]
    total = len(colors) ** g.n
    if total > cap:
        raise SgError(f"coloration cap exceeded ({total} > {cap})")
    return sum(1 for gamma in product(colors, repeat=g.n) if is_proper(g, gamma))


# ---------------------------------------------------------------------------
# deletion-contraction


def _canonical_key(g: SignedGraph):
    return (g.n, tuple(sorted((e.kind.value, e.ends, e.sign) for e in g.edges)))


def _delcon(g: SignedGraph, zero_free, memo) -> IntPolynomial:
    key = _canonical_key(g)
    hit = memo.get(key)
    if hit is not None:
        return hit

    result = None
    for e in g.edges:
        if e.kind is EdgeKind.LOOSE or (e.kind is EdgeKind.LOOP and e.sign == 1):
            result = IntPolynomial.zero()
            break
    if result is None:
        e = next((e for e in g.edges if e.kind is EdgeKind.LINK), None)
        if e is not None:
            minus = _delcon(g.with_edges(x for x in g.edges if x.id != e.id), zero_free, memo)
            contracted, _ = contract_edge(g, e.id)
            result = minus - _delcon(contracted, zero_free, memo)
        else:
            # only unbalanced edges (half edges / negative loops) remain
            unb = next((e for e in g.edges if e.ends), None)
            if unb is None:
                result = IntPolynomial.monomial(g.n)
            elif zero_free:
                # zero-free: an unbalanced edge is a vacuous constraint
                result = _delcon(
                    g.with_edges(x for x in g.edges if x.id != unb.id), zero_free, memo
                )
            else:
                minus = _delcon(
                    g.with_edges(x for x in g.edges if x.id != unb.id), zero_free, memo
                )
                contracted, _ = contract_edge(g, unb.id)
                result = minus - _delcon(contracted, zero_free, memo)

    memo[key] = result
    return result


def chromatic_poly_delcon(g: SignedGraph, zero_free=False) -> IntPolynomial:
    """Chromatic polynomial by deletion-contraction with memoization."""
    return _delcon(g, zero_free, {})


# ---------------------------------------------------------------------------
# subset expansion


def chromatic_poly_subset(g: SignedGraph, zero_free=False, edge_cap=20) -> IntPolynomial:
    """Sum over edge subsets of (-1)^|S| lambda^{b(S)} (balanced S only for
    the zero-free polynomial)."""
    ids = sorted(g.edge_ids)
    if len(ids) > edge_cap:
        raise SgError(f"subset-expansion cap exceeded ({len(ids)} > {edge_cap})")
    coeffs = [0] * (g.n + 1)
    for mask in range(1 << len(ids)):
        s = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        part = balance_partition(g, s)
        if zero_free and part.v0:
            continue
        sign = -1 if bin(mask).count("1") % 2 else 1
        coeffs[part.b] += sign
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# zero-free expansion over stable sets


def stable_vertex_sets(g: SignedGraph):
    """Vertex sets W such that no non-loose edge has all endpoints inside W."""
    out = []
    for r in range(g.n + 1):
        for combo in combinations(range(g.n), r):
            w = frozenset(combo)
            if all(
                not e.ends or not all(v in w for v in e.ends)
                for e in g.edges
                if e.kind is not EdgeKind.LOOSE
            ):
                out.append(w)
    return out


def chromatic_via_expansion(g: SignedGraph) -> IntPolynomial:
    """chi(lambda) = sum over stable W of chi*_{g - W}(lambda - 1)."""
    total = IntPolynomial.zero()
    for w in stable_vertex_sets(g):
        star = chromatic_poly_delcon(delete_vertices(g, w), zero_free=True)
        total = total + star.compose_affine(1, -1)
    return total.as_int()


# ---------------------------------------------------------------------------
# chromatic numbers


def chromatic_numbers(g: SignedGraph):
    """(chi, chi*): least k with chi(2k+1) != 0 resp. chi*(2k) != 0; None for
    an identically zero polynomial."""
    chi = chromatic_poly_delcon(g)
    chi_star = chromatic_poly_delcon(g, zero_free=True)
    num = None
    if not chi.is_zero():
        num = next(k for k in range(g.n + 2) if chi(2 * k + 1) != 0)
    num_star = None
    if not chi_star.is_zero():
        num_star = next(k for k in range(g.n + 2) if chi_star(2 * k) != 0)
    return num, num_star


# ---------------------------------------------------------------------------
# unsigned-graph helpers (for catalog predictions)


def unsigned_chromatic(n, edge_list) -> IntPolynomial:
    """Chromatic polynomial of an unsigned graph by deletion-contraction.

    edge_list: tuples (u, v); loops kill the polynomial; multi-edges collapse.
    """
    edges = sorted({tuple(sorted(e)) for e in edge_list})
    if any(u == v for u, v in edges):
        return IntPolynomial.zero()
    if not edges:
        return IntPolynomial.monomial(n)
    (u, v), rest = edges[0], edges[1:]
    deleted = unsigned_chromatic(n, rest)
    relabel = {w: (u if w == v else (w if w < v else w - 1)) for w in range(n)}
    contracted = unsigned_chromatic(
        n - 1, [(relabel[a], relabel[b]) for a, b in rest]
    )
    return deleted - contracted


def unsigned_flats(n, edge_list):
    """Closed edge sets of an unsigned graph: S is closed iff every edge whose
    endpoints are joined by S lies in S."""
    edges = list(edge_list)
    m = len(edges)
    flats = []
    for mask in range(1 << m):
        sub = [edges[i] for i in range(m) if mask >> i & 1]
        parent = list(range(n))
        for u, v in sub:
            parent[_find(parent, u)] = _find(parent, v)
        closed = all(
            mask >> i & 1 or _find(parent, edges[i][0]) != _find(parent, edges[i][1])
            for i in range(m)
        )
        if closed:
            flats.append(mask)
    return flats


def unsigned_contract(n, edge_list, flat_mask):
    """(n', edges') after contracting the edges selected by flat_mask."""
    edges = list(edge_list)
    parent = list(range(n))
    for i, (u, v) in enumerate(edges):
        if flat_mask >> i & 1:
            parent[_find(parent, u)] = _find(parent, v)
    reps = sorted({_find(parent, v) for v in range(n)})
    idx = {r: i for i, r in enumerate(reps)}
    new_edges = [
        (idx[_find(parent, u)], idx[_find(parent, v)])
        for i, (u, v) in enumerate(edges)
        if not flat_mask >> i & 1
    ]
    return len(reps), new_edges


# ---------------------------------------------------------------------------
# catalog constructions


def _has_unbalanced_edge_at(g: SignedGraph, v) -> bool:
    return any(
        (e.kind is EdgeKind.HALF and e.ends[0] == v)
        or (e.kind is EdgeKind.LOOP and e.ends[0] == v and e.sign == -1)
        for e in g.edges
    )


def make_full(g: SignedGraph, use_loops=False) -> SignedGraph:
    """Attach an unbalanced edge (half edge, or negative loop if use_loops) to
    every vertex that lacks one."""
    edges = list(g.edges)
    for v in range(g.n):
        if not _has_unbalanced_edge_at(g, v):
            eid = f"f{v + 1}"
            edges.append(loop(eid, v, -1) if use_loops else half(eid, v))
    return SignedGraph(g.n, edges)


def make_signed(n, edge_list, sign) -> SignedGraph:
    return SignedGraph(
        n, [link(f"e{i + 1}", u, v, sign) for i, (u, v) in enumerate(edge_list)]
    )


def make_signed_expansion(n, edge_list) -> SignedGraph:
    edges = []
    for i, (u, v) in enumerate(edge_list):
        edges.append(link(f"p{i + 1}", u, v, 1))
        edges.append(link(f"m{i + 1}", u, v, -1))
    return SignedGraph(n, edges)


def complete_graph_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def plus_minus_kn(n) -> SignedGraph:
    return make_signed_expansion(n, complete_graph_edges(n))


def plus_minus_kn_full(n, use_loops=False) -> SignedGraph:
    return make_full(plus_minus_kn(n), use_loops=use_loops)


def _odd_product(n):
    """(lambda-1)(lambda-3)...(lambda-2n+1)."""
    return IntPolynomial.from_roots([2 * i - 1 for i in range(1, n + 1)])


def catalog(family, base=None, n=None, edge_list=None):
    """Build a catalog family and its predicted closed-form polynomials.

    family: one of 'full', 'full_loops', 'all_positive', 'all_positive_full',
    'all_negative', 'signed_expansion', 'signed_expansion_full',
    'pm_kn', 'pm_kn_full'.  For families derived from an unsigned base graph,
    pass n and edge_list; for 'full'/'full_loops', pass a SignedGraph base.
    Returns (graph, predicted_chi, predicted_chi_star), predictions possibly
    None where no closed form is given.
    """
    if family in ("full", "full_loops"):
        if base is None:
            raise SgError("'full' families need a SignedGraph base")
        g = make_full(base, use_loops=family == "full_loops")
        star = chromatic_poly_delcon(base, zero_free=True)
        return g, star.compose_affine(1, -1).as_int(), star

    if family in ("pm_kn", "pm_kn_full"):
        if n is None:
            raise SgError("complete signed expansions need n")
        if family == "pm_kn_full":
            g = plus_minus_kn_full(n)
            chi = _odd_product(n)
        else:
            g = plus_minus_kn(n)
            chi = _odd_product(n - 1) * IntPolynomial.from_roots([n - 1])
        chi_star = IntPolynomial.from_roots([2 * i for i in range(n)])
        return g, chi, chi_star

    if n is None or edge_list is None:
        raise SgError(f"family {family!r} needs n and edge_list")
    if any(u == v for u, v in edge_list) or len(set(map(tuple, map(sorted, edge_list)))) != len(edge_list):
        raise SgError("catalog base graph must be simple")
    chi_gamma = unsigned_chromatic(n, edge_list)

    if family == "all_positive":
        return make_signed(n, edge_list, 1), chi_gamma, chi_gamma

    if family == "all_positive_full":
        g = make_full(make_signed(n, edge_list, 1))
        return g, chi_gamma.compose_affine(1, -1).as_int(), None

    if family == "all_negative":
        g = make_signed(n, edge_list, -1)
        # flat-sum: for each flat F, colorings factor into a proper coloring of
        # the contraction by absolute value (lambda/2 magnitudes) and a free
        # sign per contracted vertex, hence the 2^(order of the contraction)
        star = IntPolynomial.zero()
        for flat in unsigned_flats(n, edge_list):
            n2, e2 = unsigned_contract(n, edge_list, flat)
            term = unsigned_chromatic(n2, e2).compose_affine(Fraction(1, 2), 0)
            star = star + term.scale(2**n2)
        return g, None, star.as_int()

    if family == "signed_expansion":
        g = make_signed_expansion(n, edge_list)
        star = chi_gamma.compose_affine(Fraction(1, 2), 0).scale(2**n).as_int()
        return g, None, star

    if family == "signed_expansion_full":
        g = make_full(make_signed_expansion(n, edge_list))
        chi = (
            chi_gamma.compose_affine(Fraction(1, 2), Fraction(-1, 2))
            .scale(2**n)
            .as_int()
        )
        return g, chi, None

    raise SgError(f"unknown catalog family {family!r}")


def max_matching_size(n, edge_list) -> int:
    """Largest matching in an unsigned graph, by brute force."""
    edges = list(edge_list)
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in combinations(edges, r):
            used = [v for e in combo for v in e]
            if len(used) == len(set(used)):
                best = r
                break
    return best


def color_pair_capacity(n, edge_list) -> int:
    """For the all-negative signature on the given simple graph: the largest
    number of color pairs {+m, -m} that one proper zero-free coloration can
    use in full.

    Both signs of a magnitude can only appear on a non-adjacent vertex pair
    (adjacent vertices may not receive opposite colors), and distinct
    magnitudes need disjoint pairs; conversely any matching of non-edges is
    realizable, with all leftover vertices sharing one fresh magnitude.  So
    the capacity equals the maximum matching of the complement.  Note the
    plain minimum-k chromatic number of an all-negative graph is always 1
    (a constant coloration is proper)."""
    return max_matching_size(n, complement_edges(n, edge_list))


def max_used_pairs_bruteforce(n, edge_list, k, cap=DEFAULT_COUNT_CAP) -> int:
    """Max over proper zero-free k-colorations of the all-negative graph of
    the number of magnitudes used with both signs.  Oracle for
    color_pair_capacity."""
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


def complement_edges(n, edge_list):
    present = {tuple(sorted(e)) for e in edge_list}
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in present
    ]
