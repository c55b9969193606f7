"""Colorations of signed graphs, the chromatic polynomial by deletion-
contraction, chromatic numbers, and the catalog of derived-graph families.
The subset expansion and the zero-free expansion over stable sets, which
cross-check deletion-contraction, are in `oracles`.

Colors live in {-k..-1, 0, 1..k}; the two polynomials are evaluated at
lambda = 2k+1 (with zero) and lambda = 2k (zero-free).  Half-integer
substitutions in the catalog closed forms stay in exact rational arithmetic.
Deletion-contraction recurses on sets of integer constraint triples rather
than on graphs, so parallel duplicate constraints collapse, and it takes a
pendant vertex off as a factor lambda - 1 instead of splitting its link.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, zip_longest
from math import comb

from .core import CAPS, SgError, SignedGraph, _LOOSE, _cap, _count, _edge_vector, _pairs, half, link, loop
from .minors import contract_set
from .polynomial import IntPolynomial


# ---------------------------------------------------------------------------
# proper colorations and brute-force counting


def is_proper(g: SignedGraph, gamma) -> bool:
    """gamma: sequence of colors indexed by vertex.  False whenever the graph
    has a loose edge or positive loop (no proper colorations exist then)."""
    if len(gamma) != g.n:
        raise SgError(f"gamma has {len(gamma)} colors for {g.n} vertices")
    for e in g.edges:
        if e.kind is _LOOSE:
            return False
        if e.is_ordinary:
            u, v = e.ends
            if gamma[v] == e.sign * gamma[u]:
                return False
        else:  # half edge
            if gamma[e.ends[0]] == 0:
                return False
    return True


def _proper_colorations(g: SignedGraph, k, zero_free):
    """The proper colorations of g in -k..k, without 0 if zero_free, capped
    before any color is listed; none is for n = 0, whose one candidate is ()."""
    _cap("coloration", (2 * _count("k", k) + (not zero_free)) ** g.n)
    colors = [c for c in range(-k, k + 1) if c or not zero_free] if g.n else []
    return (gamma for gamma in product(colors, repeat=g.n) if is_proper(g, gamma))


def count_proper(g: SignedGraph, k, zero_free=False) -> int:
    return sum(1 for _ in _proper_colorations(g, k, zero_free))


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
    edge (then no coloration is proper).  Each edge's constraint is
    gamma . x(e) != 0 on its edge vector x(e) (`core._edge_vector`)."""
    out = set()
    for e in g.edges:
        vec = _edge_vector(e)
        if len(vec) == 2:
            (u, _), (v, x) = vec
            out.add((u, v, -x))
        elif not vec:
            return None
        elif not zero_free:
            v = vec[0][0]
            out.add((v, v, 0))
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


def _delcon(state, zero_free, memo):
    """chi(state) = chi(state - e) - chi(state / e) on a link e; with no links
    left, lambda^(n-z) (lambda-1)^z for z vertices barred from color 0.

    Pendant rule: if a vertex w has one constraint and it is a link to u,
    then w may take every color but sigma gamma(u), which is always one of
    the lambda colors (with or without 0), so chi(state) = (lambda - 1)
    chi(state - w), the vertices above w shifted down by one.  A (w, w, 0)
    as well would leave lambda - 2 colors when gamma(u) != 0, so the rule
    does not fire there.  One pass over the constraints counts each vertex's
    links, a (v, v, 0) counting two so that a count of one means pendant,
    and finds the link to split when no vertex is pendant: the one with the
    highest ends, so that contraction relabels as few vertices as possible.
    Every step removes at least one link."""
    hit = memo.get(state)
    if hit is not None:
        return hit
    n, cons = state
    deg = [0] * n
    e = None
    top = -1
    for c in cons:
        u, v, s = c
        if s:
            deg[u] += 1
            deg[v] += 1
            key = (v * n + u) * 2 + (s > 0)  # by higher end, lower end, sign
            if key > top:
                top, e = key, c
        else:
            deg[v] += 2
    if e is None:
        z = len(cons)
        result = (0,) * (n - z) + tuple((-1) ** (z - j) * comb(z, j) for j in range(z + 1))
    elif 1 in deg:
        w = n - 1 - deg[::-1].index(1)  # the highest pendant vertex
        rest = frozenset((a - (a > w), b - (b > w), s) for a, b, s in cons if w != a and w != b)
        p = _delcon((n - 1, rest), zero_free, memo)
        result = tuple(a - b for a, b in zip_longest((0,) + p, p, fillvalue=0))  # (lambda - 1) p
    else:
        rest = cons - {e}
        plus = _delcon((n, rest), zero_free, memo)
        minus = _delcon(_contract(n, rest, e, zero_free), zero_free, memo)
        result = tuple(a - b for a, b in zip_longest(plus, minus, fillvalue=0))
    memo[state] = result
    if len(memo) > CAPS["deletion-contraction"][0]:
        _cap("deletion-contraction", len(memo))
    return result


def _cap_depth(cons):
    """Cap the links of a starting state: each step of `_delcon` removes at
    least one, so they bound its recursion depth."""
    _cap("deletion-contraction link", sum(1 for c in cons if c[2]))


def chromatic_poly_delcon(g: SignedGraph, zero_free=False) -> IntPolynomial:
    """Chromatic polynomial by deletion-contraction with memoization."""
    cons = _constraints(g, zero_free)
    if cons is None:
        return IntPolynomial.zero()
    _cap_depth(cons)
    return IntPolynomial(_delcon((g.n, cons), zero_free, {}))


# ---------------------------------------------------------------------------
# chromatic numbers


def chromatic_numbers(g: SignedGraph):
    """(chi, chi*): least k with chi(2k+1) != 0 resp. chi*(2k) != 0; None for
    an identically zero polynomial."""
    return _least_k(chromatic_poly_delcon(g), chromatic_poly_delcon(g, zero_free=True), g.n)


def _least_k(chi, chi_star, n):
    """chromatic_numbers from the two polynomials of an n-vertex graph."""
    num = None
    if not chi.is_zero():
        num = next(k for k in range(n + 2) if chi(2 * k + 1) != 0)
    num_star = None
    if not chi_star.is_zero():
        num_star = next(k for k in range(n + 2) if chi_star(2 * k) != 0)
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


# ---------------------------------------------------------------------------
# catalog constructions


def make_full(g: SignedGraph, use_loops=False) -> SignedGraph:
    """Attach an unbalanced edge (half edge, or negative loop if use_loops) to
    every vertex that lacks one.  The half edges and negative loops are the
    edges whose edge vector has one entry."""
    edges = list(g.edges)
    have = {vec[0][0] for vec in map(_edge_vector, g.edges) if len(vec) == 1}
    for v in range(g.n):
        if v not in have:
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
    _cap("input-vertex", n)
    _cap("complete-graph", max(n, 0) * (n - 1) // 2)  # before any pair; a negative n is refused below
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def plus_minus_kn(n) -> SignedGraph:
    return make_signed_expansion(n, complete_graph_edges(n))


def plus_minus_kn_full(n) -> SignedGraph:
    return make_full(plus_minus_kn(n))


def _odd_product(n):
    """(lambda-1)(lambda-3)...(lambda-2n+1)."""
    return IntPolynomial.from_roots([2 * i - 1 for i in range(1, n + 1)])


FAMILIES = (
    "full", "full_loops", "all_positive", "all_positive_full", "all_negative",
    "signed_expansion", "signed_expansion_full", "pm_kn", "pm_kn_full",
)


def catalog(family, base=None, n=None, edge_list=None):
    """Build a catalog family and its predicted closed-form polynomials.

    family: one of FAMILIES.  For families derived from a simple unsigned
    base graph, pass n and edge_list; for 'full'/'full_loops', pass a
    SignedGraph base.  Returns (graph, predicted_chi, predicted_chi_star), predictions
    possibly None where no closed form is given.
    """
    if family not in FAMILIES:
        raise SgError(f"unknown catalog family {family!r}")
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
    _pairs(n, edge_list, "catalog base graph")
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
        # sign per contracted vertex, hence the 2^(order of the contraction).
        # The flats of Gamma are the closed sets of +Gamma.
        from .frame import closed_sets

        plus = make_signed(n, edge_list, 1)
        star = IntPolynomial.zero()
        for flat in closed_sets(plus).elements:
            h, _ = contract_set(plus, flat)
            term = chromatic_poly_delcon(h).compose_affine(Fraction(1, 2), 0)
            star = star + term.scale(2**h.n)
        return g, None, star.as_int()

    if family == "signed_expansion":
        g = make_signed_expansion(n, edge_list)
        star = chi_gamma.compose_affine(Fraction(1, 2), 0).scale(2**n).as_int()
        return g, None, star

    # signed_expansion_full
    g = make_full(make_signed_expansion(n, edge_list))
    chi = (
        chi_gamma.compose_affine(Fraction(1, 2), Fraction(-1, 2))
        .scale(2**n)
        .as_int()
    )
    return g, chi, None


def max_matching_size(n, edge_list) -> int:
    """Largest matching in an unsigned graph on vertices 0..n-1, by a DP over
    vertex sets: the lowest vertex of a set is matched to a neighbour in the
    set or left out.  A set of k vertices stops at k // 2 pairs.  The
    matching cap bounds n, and with it the 2^n sets."""
    _cap("matching", _count("n", n))
    nbr = [0] * n
    for u, v in _pairs(n, edge_list, "graph"):
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo = {0: 0}

    def best(mask):
        out = memo.get(mask)
        if out is None:
            low = mask & -mask
            rest = mask ^ low
            bound = mask.bit_count() // 2
            out = 0
            cand = nbr[low.bit_length() - 1] & rest
            while cand and out < bound:
                w = cand & -cand
                out = max(out, 1 + best(rest ^ w))
                cand ^= w
            if out < bound:
                out = max(out, best(rest))
            memo[mask] = out
        return out

    return best((1 << n) - 1)


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
    _cap("matching", _count("n", n))  # before the n(n-1)/2 complement pairs
    return max_matching_size(n, complement_edges(n, edge_list))


def complement_edges(n, edge_list):
    present = set(_pairs(n, edge_list, "graph"))
    return [e for e in complete_graph_edges(n) if e not in present]
