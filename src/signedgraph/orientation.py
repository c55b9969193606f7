"""Bidirected graphs, acyclic orientations, the signed-graphic hyperplane
arrangement, its characteristic polynomial, and exact region counting.

The characteristic polynomial is the chromatic polynomial (Zaslavsky, 1982),
computed by deletion-contraction; the region count is (-1)^n p(-1), which
also counts the acyclic orientations (Zaslavsky, 1991).  Their 2^k walk is
the oracle `oracles.enumerate_acyclic`.
"""

from __future__ import annotations

from .core import SgError, SignedGraph, _LOOP, _LOOSE, _Record, _cap, _edge_vector


class BidirectedGraph(_Record):
    """A signed graph plus an end-direction tau on edge ends.

    tau maps (edge id, slot) -> +1/-1 where slot indexes the edge's stored
    endpoint tuple; sigma(e) = -tau(end0) * tau(end1) for ordinary edges."""

    __slots__ = ("graph", "tau")

    def __init__(self, graph, tau):
        for e in graph.edges:
            for slot in range(len(e.ends)):
                if tau.get((e.id, slot)) not in (1, -1):
                    raise SgError(f"missing/bad direction on end ({e.id!r}, {slot})")
            if e.is_ordinary:
                if -tau[(e.id, 0)] * tau[(e.id, 1)] != e.sign:
                    raise SgError(f"tau inconsistent with sign on edge {e.id!r}")
        super().__init__(graph, tau)

    def eta(self, v, eid):
        """Net incidence: sum of tau over the ends of eid at v."""
        e = self.graph.edge(eid)
        return sum(
            self.tau[(eid, slot)] for slot, w in enumerate(e.ends) if w == v
        )


def orient(g: SignedGraph) -> BidirectedGraph:
    """The orientation consistent with the canonical edge vectors.

    A link or half edge takes each end's direction from its edge vector:
    for a link with endpoints i < j, tau = +1 at i and -sigma at j; a half
    edge, +1.  A loop's two ends are (+1, -sigma): both +1 when negative,
    and (+1, -1), the deterministic arbitrary choice, when positive."""
    tau = {}
    for e in g.edges:
        if e.kind is _LOOP:
            tau[(e.id, 0)], tau[(e.id, 1)] = 1, -e.sign
        else:
            entry = dict(_edge_vector(e))
            for slot, v in enumerate(e.ends):
                tau[(e.id, slot)] = entry[v]
    return BidirectedGraph(g, tau)


def _circuit_tables(g: SignedGraph, tau):
    """Per frame circuit, a mask pair (M, N) over the non-loose edges for
    each of its vertices v: M marks the circuit's edges with an end at v, N
    those whose end at v has tau = -1.  Reversing the edges of mask x makes
    v a source or sink iff (x ^ N) & M is 0 or M.  A vertex where a positive
    loop's ends disagree never is and is left out; a loose edge has none."""
    from .frame import _frame_circuits  # here, so that orient alone loads no frame

    _cap("orientation", sum(len(e.ends) for e in g.edges))
    bit = {e.id: 1 << i for i, e in enumerate(e for e in g.edges if e.kind is not _LOOSE)}
    tables = []
    for fc in _frame_circuits(g):
        masks = {}  # v -> [M, N]
        never = set()
        for eid in fc.edge_set:
            e = g._by_id[eid]
            if e.kind is _LOOP and tau[(eid, 0)] != tau[(eid, 1)]:
                never.add(e.ends[0])
                continue
            for slot, v in enumerate(e.ends):
                mn = masks.setdefault(v, [0, 0])
                mn[0] |= bit[eid]
                if tau[(eid, slot)] < 0:
                    mn[1] |= bit[eid]
        tables.append(tuple((m, n) for v, (m, n) in masks.items() if v not in never))
    return sorted(tables, key=len)  # the fewest vertices first: those fail most often


def _acyclic(tables, x) -> bool:
    """True iff orientation mask x gives every circuit a source or a sink."""
    for table in tables:
        for m, n in table:
            y = (x ^ n) & m
            if not y or y == m:
                break
        else:
            return False
    return True


def is_acyclic(b: BidirectedGraph) -> bool:
    """True iff every frame circuit's restriction has a source or a sink.
    The orientation cap bounds the edge ends.

    A loose edge is a circuit with no vertices, hence never acyclic."""
    return _acyclic(_circuit_tables(b.graph, b.tau), 0)


class Hyperplane(_Record):
    """x_j = sign * x_i (difference), x_i = 0 (coordinate), or 0 = 0."""

    __slots__ = ("kind", "edge_id", "i", "j", "sign")  # kind: "difference" | "coordinate" | "degenerate"
    _defaults = {"i": -1, "j": -1, "sign": 0}

    def equation(self):
        if self.kind == "difference":
            rhs = f"x{self.i + 1}" if self.sign > 0 else f"-x{self.i + 1}"
            return f"x{self.j + 1} = {rhs}"
        if self.kind == "coordinate":
            return f"x{self.i + 1} = 0"
        return "0 = 0"


def arrangement(g: SignedGraph):
    """One hyperplane per edge, in edge order: the zero set of its edge
    vector, x_i - sigma x_j = 0 for a link, x_i = 0 for a single entry, and
    0 = 0 for the zero vector (a loose edge or a positive loop)."""
    out = []
    for e in g.edges:
        vec = _edge_vector(e)
        if len(vec) == 2:
            (i, _), (j, x) = vec
            out.append(Hyperplane("difference", e.id, i, j, -x))
        elif vec:
            out.append(Hyperplane("coordinate", e.id, vec[0][0]))
        else:
            out.append(Hyperplane("degenerate", e.id))
    return out


def characteristic_polynomial(g: SignedGraph):
    """p(lambda) = sum over S of (-1)^|S| lambda^{b(S)}, an IntPolynomial.

    Equals the chromatic polynomial of the graph (Zaslavsky, 1982), and is
    computed as that, by deletion-contraction."""
    from .coloring import chromatic_poly_delcon  # here, so that orient alone loads no coloring

    return chromatic_poly_delcon(g)


class RegionReport(_Record):
    __slots__ = ("region_count", "char_poly", "acyclic_count", "sign_vector_regions")
    _defaults = {"acyclic_count": None, "sign_vector_regions": None}


def region_count(g: SignedGraph, oracle=False, count_acyclic=False) -> RegionReport:
    """Region count by the finite-field-free formula (-1)^n p(-1).  p is zero,
    and so is the count, exactly when a degenerate hyperplane (loose edge /
    positive loop) is present.  oracle and count_acyclic add the sign-vector
    and acyclic-orientation counts."""
    poly = characteristic_polynomial(g)
    counts = {}  # the optional fields, which default to None
    if oracle and not poly.is_zero():
        from .oracles import count_regions_by_sign_vectors

        counts["sign_vector_regions"] = count_regions_by_sign_vectors(g)
    if count_acyclic:
        from .oracles import enumerate_acyclic

        counts["acyclic_count"] = enumerate_acyclic(g)
    return RegionReport((-1) ** g.n * poly(-1), poly, **counts)
