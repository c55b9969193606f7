"""Bidirected graphs, acyclic orientations, the signed-graphic hyperplane
arrangement, its characteristic polynomial, and exact region counting.

The characteristic polynomial is the chromatic polynomial (Zaslavsky, 1982),
computed by deletion-contraction; the region count is (-1)^n p(-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .core import EdgeKind, SgError, SignedGraph
from .coloring import chromatic_poly_delcon
from .frame import enumerate_frame_circuits
from .polynomial import IntPolynomial


@dataclass(frozen=True)
class BidirectedGraph:
    """A signed graph plus an end-direction tau on edge ends.

    tau maps (edge id, slot) -> +1/-1 where slot indexes the edge's stored
    endpoint tuple; sigma(e) = -tau(end0) * tau(end1) for ordinary edges."""

    graph: SignedGraph
    tau: dict

    def __post_init__(self):
        for e in self.graph.edges:
            for slot in range(len(e.ends)):
                if self.tau.get((e.id, slot)) not in (1, -1):
                    raise SgError(f"missing/bad direction on end ({e.id!r}, {slot})")
            if e.is_ordinary:
                if -self.tau[(e.id, 0)] * self.tau[(e.id, 1)] != e.sign:
                    raise SgError(f"tau inconsistent with sign on edge {e.id!r}")

    def eta(self, v, eid):
        """Net incidence: sum of tau over the ends of eid at v."""
        e = self.graph.edge(eid)
        return sum(
            self.tau[(eid, slot)] for slot, w in enumerate(e.ends) if w == v
        )


def orient(g: SignedGraph) -> BidirectedGraph:
    """The orientation consistent with the canonical edge vectors.

    For a link with endpoints i < j: tau = +1 at i and -sigma at j.  Negative
    loop: both ends +1.  Positive loop: ends (+1, -1), the deterministic
    arbitrary choice.  Half edge: +1."""
    tau = {}
    for e in g.edges:
        if e.kind is EdgeKind.LINK:
            lo = min(e.ends)
            for slot, v in enumerate(e.ends):
                tau[(e.id, slot)] = 1 if v == lo else -e.sign
        elif e.kind is EdgeKind.LOOP:
            if e.sign == -1:
                tau[(e.id, 0)] = tau[(e.id, 1)] = 1
            else:
                tau[(e.id, 0)], tau[(e.id, 1)] = 1, -1
        elif e.kind is EdgeKind.HALF:
            tau[(e.id, 0)] = 1
    return BidirectedGraph(g, tau)


def _circuit_has_source_or_sink(b: BidirectedGraph, circuit_edges) -> bool:
    ends_at = {}
    for eid in circuit_edges:
        e = b.graph.edge(eid)
        for slot, v in enumerate(e.ends):
            ends_at.setdefault(v, []).append(b.tau[(eid, slot)])
    for signs in ends_at.values():
        if all(t == 1 for t in signs) or all(t == -1 for t in signs):
            return True
    return False


def is_acyclic(b: BidirectedGraph, circuits=None) -> bool:
    """True iff every frame circuit's restriction has a source or a sink.

    A loose edge is a circuit with no vertices, hence never acyclic."""
    if circuits is None:
        g = b.graph
        circuits = enumerate_frame_circuits(g, n_cap=g.n, edge_cap=len(g.edges))
    return all(_circuit_has_source_or_sink(b, fc.edge_set) for fc in circuits)


def enumerate_acyclic(g: SignedGraph, end_cap=24) -> int:
    """Count acyclic orientations by exhausting the 2^k consistent taus
    (one two-way choice per link, loop, or half edge)."""
    orientable = [e for e in g.edges if e.kind is not EdgeKind.LOOSE]
    n_ends = sum(len(e.ends) for e in g.edges)
    if n_ends > end_cap:
        raise SgError(f"orientation cap exceeded ({n_ends} ends > {end_cap})")
    base = orient(g)
    circuits = enumerate_frame_circuits(g, n_cap=g.n, edge_cap=len(g.edges))
    count = 0
    for flips in product((1, -1), repeat=len(orientable)):
        tau = dict(base.tau)
        for e, flip in zip(orientable, flips):
            if flip == -1:
                for slot in range(len(e.ends)):
                    tau[(e.id, slot)] = -tau[(e.id, slot)]
        b = BidirectedGraph(g, tau)
        if is_acyclic(b, circuits):
            count += 1
    return count


@dataclass(frozen=True)
class Hyperplane:
    """x_j = sign * x_i (difference), x_i = 0 (coordinate), or 0 = 0."""

    kind: str  # "difference" | "coordinate" | "degenerate"
    edge_id: str
    i: int = -1
    j: int = -1
    sign: int = 0

    def equation(self):
        if self.kind == "difference":
            rhs = f"x{self.i + 1}" if self.sign > 0 else f"-x{self.i + 1}"
            return f"x{self.j + 1} = {rhs}"
        if self.kind == "coordinate":
            return f"x{self.i + 1} = 0"
        return "0 = 0"


def arrangement(g: SignedGraph):
    """One hyperplane per edge, in edge order."""
    out = []
    for e in g.edges:
        if e.kind is EdgeKind.LINK:
            i, j = min(e.ends), max(e.ends)
            out.append(Hyperplane("difference", e.id, i, j, e.sign))
        elif e.kind is EdgeKind.LOOP and e.sign == -1:
            out.append(Hyperplane("coordinate", e.id, e.ends[0]))
        elif e.kind is EdgeKind.HALF:
            out.append(Hyperplane("coordinate", e.id, e.ends[0]))
        else:  # loose edge or positive loop
            out.append(Hyperplane("degenerate", e.id))
    return out


def characteristic_polynomial(g: SignedGraph) -> IntPolynomial:
    """p(lambda) = sum over S of (-1)^|S| lambda^{b(S)}.

    Equals the chromatic polynomial of the graph (Zaslavsky, 1982), and is
    computed as that, by deletion-contraction."""
    return chromatic_poly_delcon(g)


@dataclass(frozen=True)
class RegionReport:
    region_count: int
    char_poly: IntPolynomial
    acyclic_count: int = None
    sign_vector_regions: int = None


def region_count(g: SignedGraph, oracle=False, count_acyclic=False, n_cap=6) -> RegionReport:
    """Region count by the finite-field-free formula (-1)^n p(-1); zero when a
    degenerate hyperplane (loose edge / positive loop) is present.  oracle and
    count_acyclic add the sign-vector and acyclic-orientation counts."""
    poly = characteristic_polynomial(g)
    degenerate = any(h.kind == "degenerate" for h in arrangement(g))
    formula = 0 if degenerate else (-1) ** g.n * poly(-1)
    sv = None
    ac = None
    if oracle and not degenerate:
        from .oracles import count_regions_by_sign_vectors

        sv = count_regions_by_sign_vectors(g, n_cap=n_cap)
    if count_acyclic:
        ac = enumerate_acyclic(g)
    return RegionReport(formula, poly, ac, sv)


def region_witness_point(g: SignedGraph, b: BidirectedGraph):
    """A signed-permutation point interior to R(tau), or None.

    R(tau) is the set of x with tau(v_i,e) x_i + tau(v_j,e) x_j > 0 for every
    edge (single-term sum for half edges and loops)."""
    for perm in permutations(range(1, g.n + 1)):
        for signs in product((1, -1), repeat=g.n):
            x = [s * p for s, p in zip(signs, perm)]
            ok = True
            for e in g.edges:
                if e.kind is EdgeKind.LOOSE:
                    ok = False
                    break
                total = sum(
                    b.tau[(e.id, slot)] * x[v] for slot, v in enumerate(e.ends)
                )
                if total <= 0:
                    ok = False
                    break
            if ok:
                return x
    return None
