"""Colorations of signed graphs, the chromatic polynomial by deletion-
contraction, chromatic numbers, and the catalog of derived-graph families.
The subset expansion and the zero-free expansion over stable sets, which
cross-check deletion-contraction, are in `oracles`.

Colors live in {-k..-1, 0, 1..k}; the two polynomials are evaluated at
lambda = 2k+1 (with zero) and lambda = 2k (zero-free).  Half-integer
substitutions in the catalog closed forms stay in exact rational arithmetic.
Deletion-contraction recurses on sets of integer constraint triples rather
than on graphs, so parallel duplicate constraints collapse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product, zip_longest
from math import comb

from .core import EdgeKind, SgError, SignedGraph, _find, half, link, loop
from .minors import contract_set
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
#
# The recursion runs on (n, constraints), where each constraint is an int
# triple: (u, v, sigma) with u < v says gamma(v) != sigma * gamma(u), and
# (v, v, 0) says gamma(v) != 0.  Half edges and negative loops both give
# (v, v, 0), which is vacuous for the zero-free polynomial and dropped there;
# parallel duplicates collapse in the set.  Results are ascending coefficient
# tuples.


def _constraints(g: SignedGraph, zero_free):
    """The constraint set of g, or None if g has a positive loop or a loose
    edge (then no coloration is proper)."""
    out = set()
    for e in g.edges:
        if e.kind is EdgeKind.LINK:
            u, v = sorted(e.ends)
            out.add((u, v, e.sign))
        elif e.kind is EdgeKind.HALF or (e.kind is EdgeKind.LOOP and e.sign == -1):
            if not zero_free:
                out.add((e.ends[0], e.ends[0], 0))
        else:
            return None
    return frozenset(out)


def _contract(n, cons, e, zero_free):
    """Contract the link e = (u, v, sigma), u < v: v maps to u, the other
    constraints at v have their sign multiplied by sigma, and higher vertices
    shift down by one.  A link parallel to e has the opposite sign (an equal
    one is e itself), so it becomes a negative loop, that is (u, u, 0)."""
    u, v, sigma = e
    out = set()
    for a, b, s in cons:
        if v in (a, b):
            s *= sigma
        a = u if a == v else a - (a > v)
        b = u if b == v else b - (b > v)
        if a != b:
            out.add((min(a, b), max(a, b), s))
        elif not zero_free:
            out.add((a, a, 0))
    return n - 1, frozenset(out)


def _link_order(c):
    """Links before (v, v, 0); among links, the highest endpoints first, so
    that contraction relabels as few vertices as possible."""
    u, v, s = c
    return s != 0, v, u, s


def _delcon(state, zero_free, memo):
    """chi(state) = chi(state - e) - chi(state / e) on a link e; with no links
    left, lambda^(n-z) (lambda-1)^z for z vertices barred from color 0."""
    hit = memo.get(state)
    if hit is not None:
        return hit
    n, cons = state
    e = max(cons, key=_link_order, default=None)
    if e is None or not e[2]:
        z = len(cons)
        result = (0,) * (n - z) + tuple((-1) ** (z - j) * comb(z, j) for j in range(z + 1))
    else:
        rest = cons - {e}
        plus = _delcon((n, rest), zero_free, memo)
        minus = _delcon(_contract(n, rest, e, zero_free), zero_free, memo)
        result = tuple(a - b for a, b in zip_longest(plus, minus, fillvalue=0))
    memo[state] = result
    return result


def chromatic_poly_delcon(g: SignedGraph, zero_free=False) -> IntPolynomial:
    """Chromatic polynomial by deletion-contraction with memoization."""
    cons = _constraints(g, zero_free)
    if cons is None:
        return IntPolynomial.zero()
    return IntPolynomial(_delcon((g.n, cons), zero_free, {}))


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
    """Chromatic polynomial of an unsigned graph Gamma: chi of +Gamma, whose
    proper colorations in {-k..k} are the proper (2k+1)-colorings of Gamma.

    edge_list: tuples (u, v); loops kill the polynomial; multi-edges collapse.
    """
    edges = [
        loop(f"e{i + 1}", u, 1) if u == v else link(f"e{i + 1}", u, v, 1)
        for i, (u, v) in enumerate(edge_list)
    ]
    return chromatic_poly_delcon(SignedGraph(n, edges))


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
        plus = make_signed(n, edge_list, 1)
        star = IntPolynomial.zero()
        for flat in unsigned_flats(n, edge_list):
            h, _ = contract_set(plus, [e.id for i, e in enumerate(plus.edges) if flat >> i & 1])
            term = chromatic_poly_delcon(h).compose_affine(Fraction(1, 2), 0)
            star = star + term.scale(2**h.n)
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


def complement_edges(n, edge_list):
    present = {tuple(sorted(e)) for e in edge_list}
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in present
    ]
