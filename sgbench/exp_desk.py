"""exp-desk: exact counting tasks on desk-scale graphs.

Each op is one exponential-time task on a seeded desk graph or a catalog
family.  Dense graphs (m well above n) and sparse ones (m about n) run the
same tasks, so an algorithm bounded by n rather than m shows its gain on one
set and no change on the other.  Every answer is checked against catalog
closed forms or the benchmark's own union-find references; region and
acyclic counts are also checked against the library's sign-vector oracle.
"""

from __future__ import annotations

import gen
import ref

# seeded random desk graphs: name -> (n, links, negative loops, positive
# loops, half edges, loose edges).  Exact kind counts keep each task's cost
# nearly the same from seed to seed; the graphs with a positive loop and a
# loose edge have chi = 0 and no regions, the others are nontrivial.
DESK = {
    "dense5": (5, 10, 1, 0, 1, 0),
    "dense5z": (5, 9, 0, 1, 1, 1),
    "dense6": (6, 10, 1, 0, 1, 0),
    "sparse8": (8, 7, 1, 0, 1, 0),
    "sparse8z": (8, 6, 0, 1, 1, 1),
    "sparse9": (9, 8, 0, 0, 1, 0),
    "dense4": (4, 8, 0, 0, 1, 0),
    "sparse7": (7, 6, 1, 0, 1, 0),
}
ORACLE_N = 6
# cheap tasks whose cost depends on the graph's structure run on this many
# random graphs per class, so that the middle of the op-time distribution is
# an average over structures rather than one draw
REPLICAS = 6
# The structures are drawn once, from this fixed stream; --seed switches
# their signs (see gen.switched).  Drawing structures from --seed made the
# median op time move by a third from seed to seed, since delcon's cost
# varies five-fold between random graphs of one class.
STRUCTURE_SEED = "structures"


def graphs(seed):
    out = {f"pmk{n}": gen.pm_kn(n) for n in (4, 5, 6)}
    out["pmk4full"] = gen.pm_kn(4, full=True)
    for name, counts in DESK.items():
        for r in range(REPLICAS):
            shape = gen.desk_graph(gen.rng_for(STRUCTURE_SEED, "exp", name, r), *counts)
            out[f"{name}.{r}"] = gen.switched(shape, gen.rng_for(seed, "exp", name, r))
    return out


def glg_pairs(seed):
    """(label, n, base edges, multiplicities, scramble bits) of small
    generalized line graphs; each yields two switching-isomorphic pairs."""
    rng = gen.rng_for(seed, "exp", "glg")
    bases = [
        (3, [(0, 1), (1, 2), (0, 2)], [1, 0, 0]),
        (4, [(0, 1), (1, 2), (2, 3)], [1, 0, 0, 1]),
        (4, [(0, 1), (0, 2), (0, 3)], [0, 1, 0, 0]),
    ]
    return [(f"glg{i}", n, edges, mult, rng.getrandbits(32)) for i, (n, edges, mult) in enumerate(bases)]


class Task:
    def __init__(self, label, fn, check):
        self.label, self._fn, self._check = label, fn, check

    def run(self, sg):
        return self._fn(sg)

    def check(self, out):
        return self._check(out)


def _coeffs(p):
    return list(p.coeffs)


class Expected:
    """Lazily computed reference answers per graph, cached for the run."""

    def __init__(self, gs):
        self.gs = gs
        self.cache = {}

    def get(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def chi(self, name, zero_free):
        g = self.gs[name]
        if name.startswith("pmk"):
            n = g.n
            if zero_free:
                return ref.pm_kn_chi_star(n)
            return ref.pm_kn_full_chi(n) if name.endswith("full") else ref.pm_kn_chi(n)
        return self.get(("chi", name, zero_free), lambda: ref.subset_expansion(g, zero_free))

    def regions(self, name, sg):
        """Region count from the formula on the reference chi, checked once
        against the sign-vector oracle and the acyclic count."""
        def compute():
            g = self.gs[name]
            degenerate = any(k == "loose" or (k == "loop" and s > 0) for _, k, _, s in g.edges)
            formula = 0 if degenerate else (-1) ** g.n * ref.poly_eval(self.chi(name, False), -1)
            lib = sg.parse(g.text())
            if g.n <= ORACLE_N and not degenerate and sg.count_regions_by_sign_vectors(lib) != formula:
                raise AssertionError(f"{name}: sign-vector oracle disagrees with the region formula")
            return formula
        return self.get(("regions", name), compute)


def tasks(seed, sg):
    gs = graphs(seed)
    lib = {name: sg.parse(g.text()) for name, g in gs.items()}
    exp = Expected(gs)
    out = []

    def add(label, fn, check):
        out.append(Task(label, fn, check))

    def poly_task(label, name, zf, fn):
        add(label, lambda sg: fn(sg, lib[name], zf), lambda p: _coeffs(p) == exp.chi(name, zf))

    def reps(*classes):
        return [f"{c}.{r}" for c in classes for r in range(REPLICAS)]

    for name in ("pmk5", "pmk6", "pmk4full") + tuple(reps("dense5", "dense5z", "dense6", "sparse8", "sparse8z", "sparse9")):
        for zf in (False, True):
            poly_task(f"delcon-{'star-' if zf else ''}{name}", name, zf,
                      lambda sg, g, zf: sg.chromatic_poly_delcon(g, zero_free=zf))
    for name in reps("dense5", "dense5z", "dense6", "sparse8", "sparse8z", "sparse9"):
        poly_task(f"expansion-{name}", name, False, lambda sg, g, zf: sg.chromatic_via_expansion(g))
    # the subset expansions cost 2^m balance tests whatever the structure,
    # so one replica per class is enough
    for name in ("dense5.0", "dense5z.0", "dense6.0", "sparse8.0", "sparse8z.0", "sparse9.0"):
        for zf in (False, True):
            poly_task(f"subset-{'star-' if zf else ''}{name}", name, zf,
                      lambda sg, g, zf: sg.chromatic_poly_subset(g, zero_free=zf))
        poly_task(f"charpoly-{name}", name, False, lambda sg, g, zf: sg.characteristic_polynomial(g))
        add(f"regions-{name}", lambda sg, name=name: sg.region_count(lib[name]),
            lambda r, name=name: r.region_count == exp.regions(name, sg)
            and _coeffs(r.char_poly) == exp.chi(name, False))

    for name in reps("dense4", "sparse7"):
        add(f"acyclic-{name}", lambda sg, name=name: sg.enumerate_acyclic(lib[name]),
            lambda c, name=name: c == exp.regions(name, sg))
        # one orientation per choice of direction on each non-loose edge
        out[-1].orientations = 2 ** sum(1 for e in gs[name].edges if e[1] != "loose")

    for name in ["pmk4full"] + reps("dense5", "dense5z", "sparse8", "sparse8z"):
        def mt_check(rep, name=name):
            g = gs[name]
            det = exp.get(("det", name), lambda: ref.determinant(ref.matrices(g)["laplacian"]))
            counts = exp.get(("mtc", name), lambda: ref.matrix_tree_counts(g))
            return rep.consistent and rep.det_laplacian == det and list(rep.circle_counts) == counts
        add(f"matrix-tree-{name}", lambda sg, name=name: sg.matrix_tree(lib[name]), mt_check)

    for name in ["pmk4"] + reps("dense5", "dense5z", "sparse8", "sparse8z"):
        g = gs[name]
        add(f"frame-circuits-{name}",
            lambda sg, name=name, g=g: sg.enumerate_frame_circuits(lib[name], n_cap=g.n, edge_cap=g.m),
            lambda fcs, name=name, g=g: len(fcs) == len({fc.edge_set for fc in fcs})
            and {fc.edge_set for fc in fcs} == exp.get(("fc", name), lambda: ref.frame_circuits(g)))

    for name in ["pmk4"] + reps("dense5z", "sparse9"):
        g = gs[name]
        s = gen.subset(gen.rng_for(seed, "exp", "closure", name), g.ids(), 3, 6)
        want = ref.closure(g, s)
        add(f"closure-{name}", lambda sg, name=name, s=s: sg.closure(lib[name], s), lambda c, want=want: c == want)
        add(f"closure-by-circuits-{name}", lambda sg, name=name, s=s: sg.closure_by_circuits(lib[name], s),
            lambda c, want=want: c == want)

    # one 12-edge lattice and several 9-edge ones: with more slow lattices the
    # tail percentile sat on the edge of their group and jumped with the
    # number of passes; now it falls inside the group of dense subset sums
    for name in ("pmk4", "dense4.0", "dense4.1", "dense4.2", "sparse8.0"):
        g = gs[name]
        add(f"closed-sets-{name}", lambda sg, name=name: sg.closed_sets(lib[name]),
            lambda lat, name=name, g=g: list(lat.elements) == exp.get(("closed", name), lambda: closed_sets(g)))

    for name in reps("dense5", "dense6", "sparse8", "sparse9"):
        g = gs[name]
        add(f"min-balancing-{name}", lambda sg, name=name: sg.min_balancing_set(lib[name]),
            lambda s, name=name, g=g: s == exp.get(("mbs", name), lambda: min_balancing(g)))

    for label, n, edges, mult, scramble in glg_pairs(seed):
        src, lam = sg.generalized_line_graph(n, edges, mult)
        red = sg.reduced_line_graph(src).graph
        other = scrambled(sg, lam, scramble)
        for tag, g1, g2 in (("red", red, lam), ("self", lam, other)):
            add(f"switch-iso-{label}-{tag}", lambda sg, g1=g1, g2=g2: sg.switching_isomorphic(g1, g2),
                lambda phi, g1=g1, g2=g2: iso_ok(phi, g1, g2))
    return out


def closed_sets(g):
    from itertools import combinations

    ids = sorted(g.ids())
    closed = [frozenset(s) for r in range(len(ids) + 1) for s in combinations(ids, r)
              if ref.closure(g, s) == frozenset(s)]
    return sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))


def min_balancing(g):
    """The library's tie-break: smallest size, then first in combination
    order over sorted ids."""
    from itertools import combinations

    ids = sorted(g.ids())
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            rest = set(ids) - set(combo)
            if ref.is_balanced(g, rest):
                return frozenset(combo)
    raise AssertionError("unreachable")


def scrambled(sg, g, bits):
    """g with vertices permuted and a switching applied, both from bits."""
    import random

    rng = random.Random(bits)
    perm = list(range(g.n))
    rng.shuffle(perm)
    x = {v for v in range(g.n) if rng.random() < 0.5}
    edges = []
    for e in g.edges:
        sign = e.sign
        if e.kind.value == "link" and (e.ends[0] in x) != (e.ends[1] in x):
            sign = -sign
        edges.append(type(e)(e.id, e.kind, tuple(perm[v] for v in e.ends), sign))
    return sg.SignedGraph(g.n, edges)


def _edge_tuples(g, phi=None):
    return [(e.id, e.kind.value, tuple(phi[v] for v in e.ends) if phi else e.ends, e.sign) for e in g.edges]


def iso_ok(phi, g1, g2):
    if phi is None or sorted(phi) != list(range(g1.n)) or sorted(phi.values()) != list(range(g2.n)):
        return False
    return ref.switching_equivalent_under(_edge_tuples(g1, phi), _edge_tuples(g2), g1.n)


def warm_tasks(seed, sg):
    """One task of each kind on tiny inputs, to load code paths before timing."""
    g = sg.parse(gen.pm_kn(3, full=True).text())
    return [
        Task("warm", lambda sg: (
            sg.chromatic_poly_delcon(g), sg.chromatic_poly_subset(g), sg.chromatic_via_expansion(g),
            sg.region_count(g), sg.enumerate_acyclic(g), sg.matrix_tree(g),
            sg.closure(g, ["p1"]), sg.closure_by_circuits(g, ["p1"]), sg.closed_sets(g),
            sg.min_balancing_set(g), sg.switching_isomorphic(g, g)), lambda out: True)
    ]
