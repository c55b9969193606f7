"""poly-large: polynomial-time analysis jobs on large graphs.

One op parses the generator's ``sg 1`` text and runs the balance, switching,
rank, minor and serialization kernels on it; graphs small enough for the
cubic closure and balancing-edge kernels run those too.  Sizes double so the
traced run can fit each kernel's exponent.
"""

from __future__ import annotations

import gen
import ref

# main-component sizes k per shape (a graph has k + 7 vertices).  The top
# sizes keep each job under a second and the run under 250 MB on the seed,
# whose parse is quadratic in m and whose balance test is quadratic in BFS
# depth (a cycle of 4096 peaked at 540 MB).
SERIES = {
    "cycle": (32, 64, 128, 256, 512, 1024, 2048),
    "path": (32, 64, 128, 256, 512, 1024, 2048),
    "ladder": (32, 64, 128, 256, 512, 1024, 2048),
    "random": (32, 64, 128, 256, 512, 1024),
}
# closure and balancing-edge classification run only up to this n + m,
# where the seed's cubic cost stays under half a second
SMALL_SIZE = 400
CLOSURE_EDGES = 12
STRUCTURE_SEED = "structures"


class Job:
    def __init__(self, seed, shape, k):
        rng = gen.rng_for(seed, "poly", shape, k)
        # The random shape's links come from a fixed stream, as in exp-desk:
        # with --seed drawing them, which job held the median moved from seed
        # to seed and the median op time with it.  --seed still draws signs,
        # labels, edge order and the sets S and X.
        structure = gen.rng_for(STRUCTURE_SEED, "poly", shape, k)
        # alternate which tier has a balanced main component, so both
        # answers of harary_bipartition are exercised in every shape
        self.g = gen.large_graph(shape, k, rng, (k.bit_length() % 2 == 0), structure)
        self.text = self.g.text()
        ids = self.g.ids()
        # S keeps long runs of edges, so its forest stays as deep as the graph
        self.s = [e for e in ids if rng.random() >= 1 / 64]
        self.x = [v for v in range(self.g.n) if rng.random() < 0.5]
        self.small = self.g.n + self.g.m <= SMALL_SIZE
        self.s_closure = rng.sample(ids, CLOSURE_EDGES) if self.small else None
        self.shape, self.k = shape, k
        self.label = f"{shape}-{k}"
        self.size = self.g.n + self.g.m
        self.family = "shallow" if shape == "random" else "deep"
        self._expected = None

    def run(self, sg):
        g = sg.parse(self.text)
        out = {
            "graph": g,
            "partition": sg.balance_partition(g),
            "harary": sg.harary_bipartition(g),
            "rank": sg.rank(g, self.s),
        }
        switched = sg.switch_set(g, self.x)
        out["switched"] = switched
        out["zeta"] = sg.switching_equivalent(g, switched)
        out["contracted"] = sg.contract_set(g, self.s)
        out["deleted"] = sg.delete_edges(g, self.s)
        out["text"] = sg.serialize(g)
        if self.small:
            out["closure"] = sg.closure(g, self.s_closure)
            out["balancing"] = sg.classify_balancing_edges(g)
        return out

    def expected(self):
        if self._expected is None:
            g = self.g
            bal, v0, _ = ref.partition(g)
            if bal != g.balanced or v0 != g.v0:
                raise AssertionError(f"{self.label}: planted answer disagrees with union-find")
            order, cedges, _ = ref.contract(g, self.s)
            s = set(self.s)
            self._expected = {
                "balanced": bal,
                "v0": v0,
                "rank": ref.rank(g, self.s),
                "switched": ref.switch(g, self.x),
                "contracted": (order, cedges),
                "deleted": tuple(e for e in g.edges if e[0] not in s),
                "closure": ref.closure(g, self.s_closure) if self.small else None,
                "balancing": ref.classify_balancing_edges(g) if self.small else None,
            }
        return self._expected

    def check(self, out):
        exp = self.expected()
        g = self.g
        if graph_tuple(out["graph"]) != (g.n, g.edges):
            return False
        part = out["partition"]
        if set(map(frozenset, part.pib)) != exp["balanced"] or part.v0 != exp["v0"]:
            return False
        if exp["v0"]:
            if out["harary"] is not None:
                return False
        elif out["harary"] is None or not ref.harary_ok(g, out["harary"]):
            return False
        if out["rank"] != exp["rank"]:
            return False
        if graph_tuple(out["switched"]) != (g.n, exp["switched"]):
            return False
        zeta = out["zeta"]
        if zeta is None or ref.switch(g, [v for v in range(g.n) if zeta[v] == -1]) != exp["switched"]:
            return False
        contracted, trace = out["contracted"]
        if graph_tuple(contracted) != exp["contracted"] or trace.contracted != frozenset(self.s):
            return False
        if graph_tuple(out["deleted"]) != (g.n, exp["deleted"]):
            return False
        if out["text"] != self.text.encode():
            return False
        if self.small and (out["closure"] != exp["closure"] or out["balancing"] != exp["balancing"]):
            return False
        return True


def graph_tuple(g):
    """A library SignedGraph as (n, generator-style edge tuple)."""
    return g.n, tuple((e.id, e.kind.value, tuple(e.ends), e.sign) for e in g.edges)


def jobs(seed):
    return [Job(seed, shape, k) for shape, ks in SERIES.items() for k in ks]


def warm_jobs(seed):
    return [Job(seed, shape, 16) for shape in SERIES]
