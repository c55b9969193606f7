"""cli-desk: one ``python -m signedgraph.cli`` launch per op.

The invocation list covers all 21 verbs in text and ``--json`` over a seeded
corpus of desk graphs (n <= 8, m <= 16, all four edge kinds) plus sigma4,
and runs the cheap verbs on 64-edge inputs at the CLI's own cap.  Each
stdout is parsed and compared with references the benchmark computes itself;
repeats of one invocation must be byte-identical.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import product

import gen
import ref

SIGMA4 = gen.Graph(4, (
    ("a", "link", (0, 1), 1), ("b", "link", (1, 2), -1), ("c", "link", (2, 3), 1),
    ("d", "link", (0, 3), -1), ("e", "link", (0, 3), 1), ("f", "link", (0, 2), -1),
    ("h", "half", (2,), None),
))


def balanced_graph(rng, n, links):
    """A connected graph whose signs come from a hidden switching function."""
    zeta = [rng.choice((1, -1)) for _ in range(n)]
    pairs = [(v, rng.randrange(v)) for v in range(1, n)]
    while len(pairs) < links:
        u, v = rng.sample(range(n), 2)
        pairs.append((u, v))
    rng.shuffle(pairs)
    return gen.Graph(n, tuple((f"e{i + 1}", "link", (u, v), zeta[u] * zeta[v]) for i, (u, v) in enumerate(pairs)))


def corpus(seed):
    r = lambda tag: gen.rng_for(seed, "cli", tag)  # noqa: E731
    return {
        "sigma4": SIGMA4,
        "mixed12": gen.desk_graph(r("mixed12"), 6, 8, 1, 1, 1, 1),
        "mixed16": gen.desk_graph(r("mixed16"), 8, 13, 1, 0, 1, 1),
        "desk9": gen.desk_graph(r("desk9"), 5, 7, 1, 0, 1, 0),
        "balanced": balanced_graph(r("balanced"), 7, 10),
        "simple": gen.desk_graph(r("simple"), 5, 6, simple=True),
        "base": gen.Graph(4, (("a", "link", (0, 1), 1), ("b", "link", (1, 2), 1), ("c", "link", (2, 3), 1))),
        "wide64": gen.desk_graph(r("wide64"), 24, 58, 2, 1, 2, 1),
        "links64": gen.desk_graph(r("links64"), 24, 64),
    }


class Invocation:
    def __init__(self, verb, graph, args, js):
        self.verb, self.graph, self.args, self.json = verb, graph, list(args), js
        self.key = " ".join([verb, graph or "-", *self.args, "--json" if js else ""])

    def argv(self, paths):
        files = [paths[self.graph]] if self.graph else []
        return [self.verb, *files, *self.args, *(["--json"] if self.json else [])]


def invocations(seed, graphs):
    rng = gen.rng_for(seed, "cli", "args")

    def ids(name, lo, hi):
        return ",".join(gen.subset(rng, graphs[name].ids(), lo, hi))

    def verts(name):
        n = graphs[name].n
        return ",".join(str(v + 1) for v in gen.subset(rng, list(range(n)), 1, n - 1))

    zf = rng.random() < 0.5
    desk = [
        ("info", "mixed16", []),
        ("balance", "balanced", []),
        ("balance", "mixed12", []),
        ("switch", "mixed12", ["--vertices", verts("mixed12")]),
        ("balancing-edges", "mixed16", []),
        ("delete", "mixed12", ["--edges", ids("mixed12", 1, 4)]),
        ("contract", "mixed16", ["--edges", ids("mixed16", 2, 6)]),
        ("frame-circuits", "desk9", []),
        ("closure", "mixed12", ["--edges", ids("mixed12", 2, 5)]),
        ("rank", "mixed16", ["--edges", ids("mixed16", 3, 9)]),
        ("matrix", "mixed12", ["--which", rng.choice(["incidence", "adjacency", "laplacian", "degree"])]),
        ("matrix-tree", "desk9", []),
        ("spectrum", "mixed16", ["--which", rng.choice(["adjacency", "laplacian"])]),
        ("regions", "sigma4", ["--oracle", "--acyclic"]),
        ("regions", "desk9", []),
        ("acyclic", "desk9", []),
        ("charpoly", "mixed12", []),
        # expansion computes chi only, so it runs without --zero-free
        ("chromatic", "desk9", ["--algorithm", rng.choice(["delcon", "subset"])] + (["--zero-free"] if zf else [])),
        ("chromatic", "mixed12", ["--algorithm", "expansion"]),
        ("chromatic", "desk9", ["--algorithm", "count", "--k", "1"] + (["--zero-free"] if not zf else [])),
        ("catalog", None, ["--family", rng.choice(["pmkn", "pmknfull"]), "--n", str(rng.randint(3, 4))]),
        ("linegraph", "simple", rng.choice([[], ["--reduced"]])),
        ("glinegraph", "base", ["--m", ",".join(str(rng.randint(0, 1)) for _ in range(4))]),
        ("roots", None, ["--name", rng.choice(["A", "B", "C", "D"]), "--n", str(rng.randint(2, 4))]),
        ("roots", None, ["--name", "E8"]),
        ("gramian", "simple", ["--nu", rng.choice(["1", "3/2", "2", "3"])] + rng.choice([[], ["--anti"]])),
    ]
    wide = [
        ("info", "wide64", []),
        ("balance", "wide64", []),
        ("switch", "wide64", ["--vertices", verts("wide64")]),
        ("delete", "wide64", ["--edges", ids("wide64", 4, 12)]),
        ("contract", "wide64", ["--edges", ids("wide64", 4, 12)]),
        ("rank", "wide64", ["--edges", ids("wide64", 8, 40)]),
        ("matrix", "wide64", ["--which", "laplacian"]),
        ("spectrum", "wide64", ["--which", "adjacency"]),
        ("linegraph", "links64", ["--reduced"]),
        ("closure", "wide64", ["--edges", ids("wide64", 3, 6)]),
    ]
    out = [Invocation(v, g, a, js) for v, g, a in desk for js in (False, True)]
    out += [Invocation(v, g, a, i % 2 == 1) for i, (v, g, a) in enumerate(wide)]
    rng.shuffle(out)
    return out


def write_corpus(graphs, workdir):
    paths = {}
    for name, g in graphs.items():
        paths[name] = os.path.join(workdir, f"{name}.sg")
        with open(paths[name], "w") as fh:
            fh.write(g.text())
    return paths


# ---------------------------------------------------------------------------
# output checks


def parse_sg(text):
    """The benchmark's own reader for graph text printed by the CLI."""
    n, edges = None, []
    for line in text.splitlines():
        f = line.split()
        if not f or f == ["sg", "1"]:
            continue
        if f[0] == "n":
            n = int(f[1])
        elif f[0] == "edge":
            u, v = int(f[2]) - 1, int(f[3]) - 1
            edges.append((f[1], "link" if u != v else "loop", (u, v), 1 if f[4] == "+" else -1))
        elif f[0] == "half":
            edges.append((f[1], "half", (int(f[2]) - 1,), None))
        elif f[0] == "loose":
            edges.append((f[1], "loose", (), None))
        else:
            raise ValueError(line)
    return gen.Graph(n, tuple(edges))


def _vs(vs):
    return "{" + ",".join(str(v + 1) for v in sorted(vs)) + "}"


def _es(s):
    return "{" + ",".join(sorted(s)) + "}"


def _parse_set(tok):
    body = tok.strip().strip("{}")
    return [x for x in body.split(",") if x]


def _split_graph(text):
    """Leading sg 1 block of a text report and the remaining lines."""
    lines = text.split("\n")
    i = 1
    while i < len(lines) and lines[i].split()[:1] and lines[i].split()[0] in ("n", "edge", "half", "loose"):
        i += 1
    return "\n".join(lines[:i]) + "\n", lines[i:]


def _chrom_numbers(chi, star, n):
    a = next((k for k in range(n + 2) if ref.poly_eval(chi, 2 * k + 1) != 0), None) if chi else None
    b = next((k for k in range(n + 2) if ref.poly_eval(star, 2 * k) != 0), None) if star else None
    return a, b


class Checker:
    """Expected answers per invocation, computed once per run."""

    def __init__(self, graphs):
        self.graphs = graphs
        self.cache = {}
        self.first = {}

    def check(self, inv, code, stdout):
        """True iff the launch exited 0, its stdout matches the reference, and
        it repeats the first stdout of the same invocation byte for byte."""
        if code != 0:
            return False
        first = self.first.setdefault(inv.key, stdout)
        if first != stdout:
            return False
        if inv.key not in self.cache:
            self.cache[inv.key] = self._verdict(inv, stdout)
        return self.cache[inv.key]

    def _verdict(self, inv, stdout):
        text = stdout.decode()
        if inv.json:
            obj = json.loads(text)
            if obj.pop("schema", None) != "sgtool/1" or obj.pop("verb", None) != inv.verb:
                return False
        else:
            obj = text
        method = getattr(self, "_" + inv.verb.replace("-", "_"))
        return bool(method(inv, self.graphs.get(inv.graph), obj))

    @staticmethod
    def _lines(obj):
        return obj.rstrip("\n").split("\n")

    def _exact(self, inv, obj, payload, lines):
        if inv.json:
            return obj == payload
        return obj == "\n".join(lines) + "\n"

    def _info(self, inv, g, obj):
        kinds = {k: sum(1 for e in g.edges if e[1] == k) for k in ("link", "loop", "half", "loose")}
        payload = {"graph": {"n": g.n, "m": g.m, "kinds": kinds}, "edges": g.ids()}
        lines = [f"n: {g.n}", f"m: {g.m}", "kinds: " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
                 "edges: " + ",".join(g.ids())]
        return self._exact(inv, obj, payload, lines)

    def _balance(self, inv, g, obj):
        bal, v0, _ = ref.partition(g)
        pib = [sorted(c) for c in sorted(bal, key=min)]
        if inv.json:
            head = {"balanced": not v0, "b": len(bal), "V0": sorted(v + 1 for v in v0),
                    "pi_b": [[v + 1 for v in c] for c in pib]}
            harary = obj.pop("harary", None)
            sides = None if harary is None else [[v - 1 for v in s] for s in harary]
            return obj == head and (sides is None) == bool(v0) and (v0 or ref.harary_ok(g, sides))
        lines = self._lines(obj)
        want = f"balanced: {str(not v0).lower()}, b={len(bal)}, V0={_vs(v0)}"
        if lines[0] != want or len(lines) != (1 if v0 else 2):
            return False
        if v0:
            return True
        a, b = lines[1][len("harary: "):].split(" | ")
        return lines[1].startswith("harary: ") and ref.harary_ok(
            g, [[int(x) - 1 for x in _parse_set(a)], [int(x) - 1 for x in _parse_set(b)]])

    def _graph_payload(self, inv, obj, graph):
        text = graph.text()
        return self._exact(inv, obj, {"graph_text": text}, [text.rstrip("\n")])

    def _switch(self, inv, g, obj):
        x = [int(v) - 1 for v in inv.args[1].split(",")]
        return self._graph_payload(inv, obj, gen.Graph(g.n, ref.switch(g, x)))

    def _delete(self, inv, g, obj):
        s = set(inv.args[1].split(","))
        return self._graph_payload(inv, obj, gen.Graph(g.n, tuple(e for e in g.edges if e[0] not in s)))

    def _contract(self, inv, g, obj):
        order, edges, vmap = ref.contract(g, inv.args[1].split(","))
        text = gen.Graph(order, edges).text()
        vm = {str(v + 1): (None if w is None else w + 1) for v, w in vmap.items()}
        line = "vertex-map: " + ", ".join(
            f"{k}->{'gone' if v is None else v}" for k, v in sorted(vm.items(), key=lambda kv: int(kv[0])))
        return self._exact(inv, obj, {"graph_text": text, "vertex_map": vm}, [text.rstrip("\n"), line])

    def _balancing_edges(self, inv, g, obj):
        cls = ref.classify_balancing_edges(g)
        return self._exact(inv, obj, {"classification": cls}, [f"{e}: {cls[e]}" for e in sorted(cls)])

    def _frame_circuits(self, inv, g, obj):
        if inv.json:
            got = [(c["kind"], frozenset(c["edges"])) for c in obj["circuits"]]
        else:
            lines = self._lines(obj)
            if lines[-1] != f"count: {len(lines) - 1}":
                return False
            got = [(ln.split(": ")[0], frozenset(_parse_set(ln.split(": ")[1]))) for ln in lines[:-1]]
        want = ref.frame_circuits(g)
        if len(got) != len(want) or {s for _, s in got} != want:
            return False
        kind_of = {e[0]: e for e in g.edges}
        for kind, s in got:
            verts = {v for eid in s for v in kind_of[eid][2]}
            if len(s) == 1 and kind_of[next(iter(s))][1] == "loose":
                if kind != "loose_edge":
                    return False
            elif (kind == "positive_circle") != (len(s) == len(verts)):
                return False
            elif kind not in ("positive_circle", "tight_handcuff", "loose_handcuff"):
                return False
        return True

    def _closure(self, inv, g, obj):
        c = sorted(ref.closure(g, inv.args[1].split(",")))
        return self._exact(inv, obj, {"closure": c}, [f"closure: {_es(c)}"])

    def _rank(self, inv, g, obj):
        r = ref.rank(g, inv.args[1].split(",") if inv.args else None)
        return self._exact(inv, obj, {"rank": r}, [f"rank: {r}"])

    def _matrix(self, inv, g, obj):
        m = ref.matrices(g)[inv.args[1]]
        return self._exact(inv, obj, {"which": inv.args[1], "matrix": m},
                           [" ".join(f"{x:3d}" for x in row) for row in m])

    def _matrix_tree(self, inv, g, obj):
        det = ref.determinant(ref.matrices(g)["laplacian"])
        counts = ref.matrix_tree_counts(g)
        w = sum(4 ** i * b for i, b in enumerate(counts))
        payload = {"det_laplacian": det, "circle_counts": counts, "weighted_sum": w, "consistent": det == w}
        lines = [f"det-laplacian: {det}", "circle-counts: " + ",".join(map(str, counts)),
                 f"weighted-sum: {w}", f"consistent: {str(det == w).lower()}"]
        return det == w and self._exact(inv, obj, payload, lines)

    def _spectrum(self, inv, g, obj):
        m = ref.matrices(g)[inv.args[1]]
        if inv.json:
            if obj.get("which") != inv.args[1]:
                return False
            eig = obj["eigenvalues"]
        else:
            line = self._lines(obj)[0]
            if not line.startswith("eigenvalues: "):
                return False
            eig = [float(x) for x in line[len("eigenvalues: "):].split(", ")]
        trace = sum(m[i][i] for i in range(g.n))
        frob = sum(x * x for row in m for x in row)
        tol = 1e-6 * (1 + frob)
        return (len(eig) == g.n and eig == sorted(eig) and abs(sum(eig) - trace) < tol
                and abs(sum(x * x for x in eig) - frob) < tol)

    def _chi(self, g, zero_free=False):
        key = ("chi", g, zero_free)
        if key not in self.cache:
            self.cache[key] = ref.subset_expansion(g, zero_free)
        return self.cache[key]

    def _regions_expected(self, g):
        degenerate = any(k == "loose" or (k == "loop" and s > 0) for _, k, _, s in g.edges)
        return degenerate, 0 if degenerate else (-1) ** g.n * ref.poly_eval(self._chi(g), -1)

    def _regions(self, inv, g, obj):
        chi = self._chi(g)
        degenerate, regions = self._regions_expected(g)
        payload = {"regions": regions, "charpoly": ref.format_poly(chi), "coefficients": chi}
        lines = [f"regions: {regions}", f"charpoly: {ref.format_poly(chi)}"]
        if "--oracle" in inv.args and not degenerate:
            payload["oracle_regions"] = regions
            lines.append(f"oracle-regions: {regions}")
        if "--acyclic" in inv.args:
            payload["acyclic"] = regions
            lines.append(f"acyclic: {regions}")
        return self._exact(inv, obj, payload, lines)

    def _acyclic(self, inv, g, obj):
        c = self._regions_expected(g)[1]
        return self._exact(inv, obj, {"acyclic": c}, [f"acyclic: {c}"])

    def _charpoly(self, inv, g, obj):
        chi = self._chi(g)
        return self._exact(inv, obj, {"charpoly": ref.format_poly(chi), "coefficients": chi}, [ref.format_poly(chi)])

    def _chromatic(self, inv, g, obj):
        zf = "--zero-free" in inv.args
        chi, star = self._chi(g), self._chi(g, True)
        if "count" in inv.args:
            k = int(inv.args[inv.args.index("--k") + 1])
            c = ref.poly_eval(star, 2 * k) if zf else ref.poly_eval(chi, 2 * k + 1)
            return self._exact(inv, obj, {"count": c, "k": k}, [f"count: {c}"])
        p = star if zf else chi
        a, b = _chrom_numbers(chi, star, g.n)
        payload = {"polynomial": ref.format_poly(p), "coefficients": p, "zero_free": zf,
                   "chromatic_number": a, "zero_free_chromatic_number": b}
        return self._exact(inv, obj, payload, [ref.format_poly(p), f"chromatic-number: {a}, zero-free: {b}"])

    def _catalog(self, inv, g, obj):
        full = inv.args[1] == "pmknfull"
        n = int(inv.args[3])
        text = gen.pm_kn(n, full).text()
        chi = ref.format_poly(ref.pm_kn_full_chi(n) if full else ref.pm_kn_chi(n))
        star = ref.format_poly(ref.pm_kn_chi_star(n))
        return self._exact(inv, obj, {"graph_text": text, "chi": chi, "chi_star": star},
                           [text.rstrip("\n"), f"chi: {chi}", f"chi*: {star}"])

    def _linegraph(self, inv, g, obj):
        if inv.json:
            if obj.get("vertex_labels") != g.ids():
                return False
            got = parse_sg(obj["graph_text"])
        else:
            text, rest = _split_graph(obj.rstrip("\n"))
            if rest != ["vertices: " + ",".join(g.ids())]:
                return False
            got = parse_sg(text)
        full = line_graph(g)
        if "--reduced" not in inv.args:
            return got == full
        if got.n != full.n or not set(got.edges) <= set(full.edges):
            return False
        if ref.matrices(got)["adjacency"] != ref.matrices(full)["adjacency"]:
            return False
        pairs = [(tuple(sorted(e[2])), e[3]) for e in got.edges]
        return not any((p, -s) in set(pairs) for p, s in pairs)

    def _glinegraph(self, inv, g, obj):
        mult = [int(x) for x in inv.args[1].split(",")]
        base = [e[2] for e in g.edges]
        petal, lam = petal_graph(g.n, base, mult), glg(base, mult)
        if inv.json:
            return obj == {"petal_graph_text": petal.text(), "generalized_line_graph_text": lam.text(),
                           "identity": True}
        return obj == petal.text() + "---\n" + lam.text() + "identity: true\n"

    def _roots(self, inv, g, obj):
        name = inv.args[1]
        vecs = sorted(root_vectors(name, 8 if name == "E8" else int(inv.args[3])))
        n = len(vecs[0])
        payload = {"name": name, "n": n, "count": len(vecs), "vectors": [[str(x) for x in v] for v in vecs]}
        lines = [f"{name}({n}): {len(vecs)} vectors"] + ["(" + ", ".join(str(x) for x in v) + ")" for v in vecs]
        return self._exact(inv, obj, payload, lines)

    def _gramian(self, inv, g, obj):
        nu = Fraction(inv.args[1])
        flip = -1 if "--anti" in inv.args else 1
        adj = ref.matrices(g)["adjacency"]
        m = [[flip * adj[i][j] + (nu if i == j else 0) for j in range(g.n)] for i in range(g.n)]
        exists = ref.is_psd(m)
        if inv.json:
            if obj.get("exists") != exists:
                return False
            if not exists:
                return obj == {"exists": False}
            if obj.get("nu") != str(nu):
                return False
            dim, vecs = obj["dimension"], obj["vectors"]
        else:
            lines = self._lines(obj)
            if lines[0] != f"exists: {str(exists).lower()}":
                return False
            if not exists:
                return len(lines) == 1
            dim = int(lines[1].split(": ")[1])
            vecs = [[float(x) for x in ln.strip("()").split(", ")] for ln in lines[2:]]
        if dim != exact_rank(m) or len(vecs) != g.n or any(len(v) != dim for v in vecs):
            return False
        return all(abs(sum(a * b for a, b in zip(vecs[i], vecs[j])) - float(m[i][j])) < 1e-6
                   for i in range(g.n) for j in range(g.n))


def exact_rank(m):
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        p = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def line_graph(g):
    """Line graph of a link graph under the canonical orientation: tau = +1
    at the lower end of each link and -sigma at the upper end."""
    at = {}
    for eid, kind, (u, v), sign in g.edges:
        lo = min(u, v)
        for w in (u, v):
            at.setdefault(w, []).append((eid, 1 if w == lo else -sign))
    index = {e[0]: i for i, e in enumerate(g.edges)}
    edges = []
    for v in sorted(at):
        inc = at[v]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                (e1, t1), (e2, t2) = inc[i], inc[j]
                lo, hi = sorted((e1, e2))
                edges.append((f"{lo}|{hi}@{v + 1}", "link", (index[e1], index[e2]), -t1 * t2))
    return gen.Graph(g.m, tuple(edges))


def petal_graph(n, base, mult):
    edges = [(f"e{k + 1}", "link", (u, v), -1) for k, (u, v) in enumerate(base)]
    nxt = n
    for v, m in enumerate(mult):
        for t in range(m):
            edges.append((f"p{v + 1}.{t + 1}a", "link", (v, nxt), 1))
            edges.append((f"p{v + 1}.{t + 1}b", "link", (v, nxt), -1))
            nxt += 1
    return gen.Graph(nxt, tuple(edges))


def glg(base, mult):
    """The negated generalized line graph, built from its definition: line
    graph of the base, a cocktail party graph per vertex, join edges."""
    pairs = [(i, j) for i in range(len(base)) for j in range(i + 1, len(base)) if set(base[i]) & set(base[j])]
    offset = len(base)
    for v, m in enumerate(mult):
        cp = list(range(offset, offset + 2 * m))
        offset += 2 * m
        pairs += [(cp[a], cp[b]) for a in range(len(cp)) for b in range(a + 1, len(cp)) if a // 2 != b // 2]
        pairs += [(i, w) for i, e in enumerate(base) if v in e for w in cp]
    return gen.Graph(offset, tuple((f"L{k + 1}", "link", p, -1) for k, p in enumerate(pairs)))


def root_vectors(name, n):
    def e(i, c=1, dim=n):
        v = [Fraction(0)] * dim
        v[i] = Fraction(c)
        return v

    out = set()
    if name == "A":
        out = {tuple(a - b for a, b in zip(e(j), e(i))) for i in range(n) for j in range(n) if i != j}
    else:
        for i in range(n):
            for j in range(i + 1, n):
                for si, sj in product((1, -1), repeat=2):
                    out.add(tuple(a + b for a, b in zip(e(i, si), e(j, sj))))
        if name in ("B", "C"):
            c = 1 if name == "B" else 2
            out |= {tuple(e(i, s * c)) for i in range(n) for s in (1, -1)}
        if name == "E8":
            out |= {tuple(Fraction(s, 2) for s in signs)
                    for signs in product((1, -1), repeat=8) if signs.count(-1) % 2 == 0}
    return out
