"""sgtool: command-line front end.

Every verb reads the `sg 1` text format, prints a deterministic text report
(or canonical JSON with --json), and exits 0 on success, 1 on a domain error,
2 on usage errors.  --threads is accepted for interface stability; all
analyses are deterministic and single-threaded.

`run` loads the input (`_load`; None for `roots`, and for `catalog` without a
file), calls the verb's handler `cmd_*(g, args)`, which only computes and
returns (JSON payload, text lines), and prints the result with one `_emit`.

Only `core` is imported with this module.  Each verb handler imports what it
uses from the other submodules when it runs, so a launch loads just the
modules of its verb; none loads numpy, as `spectrum` runs in pure Python.

A launch also builds only what its verb uses: `build_parser` adds just the
subparser of the verb named first on the command line (all of them for
--help or an unknown name, so help and usage errors read the same), and json
is imported only for --json.  The records the library returns are plain
`__slots__` classes, so no launch imports dataclasses or inspect.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core
from .core import SgError, SignedGraph, parse, serialize

SCHEMA = "sgtool/1"


def _fmt_float(x):
    return float(f"{x:.12g}")


def _vset(vs):
    """1-based vertex set like {1,3,4}."""
    return "{" + ",".join(str(v + 1) for v in sorted(vs)) + "}"


def _eset(s):
    return "{" + ",".join(sorted(s)) + "}"


def _load(args) -> SignedGraph:
    try:
        with open(args.input, "rb") as fh:
            g = parse(fh.read())
    except OSError as exc:
        raise SgError(f"cannot read {args.input}: {exc.strerror}") from None
    if args.max_edges is not None:
        print(f"warning: edge cap overridden to {args.max_edges}", file=sys.stderr)
    core._cap("input-edge", len(g.edges), args.max_edges)
    return g


def _graph_summary(g: SignedGraph):
    kinds = {"link": 0, "loop": 0, "half": 0, "loose": 0}
    for e in g.edges:
        kinds[e.kind.value] += 1
    return {"n": g.n, "m": len(g.edges), "kinds": kinds}


def _edge_list_arg(raw):
    return [s for s in raw.split(",") if s]


def _graph_text(h):
    """h in `sg 1` text, and that text as one report line."""
    out = serialize(h).decode()
    return out, out.rstrip("\n")


def _link_ends(g):
    return [e.ends for e in g.edges if e.kind is core.EdgeKind.LINK]


def _emit(args, payload, text_lines):
    if args.json:
        import json

        payload = {"schema": SCHEMA, "verb": args.verb, **payload}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# verb handlers: each takes (g, args) and returns (JSON payload, text lines)


def cmd_info(g, args):
    s = _graph_summary(g)
    lines = [
        f"n: {g.n}",
        f"m: {len(g.edges)}",
        "kinds: " + ", ".join(f"{k}={v}" for k, v in sorted(s["kinds"].items())),
        "edges: " + ",".join(e.id for e in g.edges),
    ]
    return {"graph": s, "edges": [e.id for e in g.edges]}, lines


def cmd_balance(g, args):
    from .balance import balance_partition, harary_bipartition

    part = balance_partition(g)
    balanced = not part.v0
    line = f"balanced: {str(balanced).lower()}, b={part.b}, V0={_vset(part.v0)}"
    lines = [line]
    payload = {
        "balanced": balanced,
        "b": part.b,
        "V0": sorted(v + 1 for v in part.v0),
        "pi_b": [[v + 1 for v in comp] for comp in part.pib],
    }
    if balanced:
        v1, v2 = harary_bipartition(g)
        lines.append(f"harary: {_vset(v1)} | {_vset(v2)}")
        payload["harary"] = [sorted(v + 1 for v in v1), sorted(v + 1 for v in v2)]
    return payload, lines


def cmd_switch(g, args):
    from .balance import switch_set

    verts = []
    for tok in _edge_list_arg(args.vertices):
        try:
            v = int(tok) - 1
        except ValueError:
            raise SgError(f"bad vertex {tok!r}") from None
        if not 0 <= v < g.n:
            raise SgError(f"vertex {tok} out of range")
        verts.append(v)
    out, line = _graph_text(switch_set(g, verts))
    return {"graph_text": out}, [line]


def cmd_balancing_edges(g, args):
    from .balance import classify_balancing_edges

    cls = classify_balancing_edges(g)
    return {"classification": cls}, [f"{eid}: {cls[eid]}" for eid in sorted(cls)]


def cmd_delete(g, args):
    from .minors import delete_edges

    out, line = _graph_text(delete_edges(g, _edge_list_arg(args.edges)))
    return {"graph_text": out}, [line]


def cmd_contract(g, args):
    from .minors import contract_set

    result, trace = contract_set(g, _edge_list_arg(args.edges))
    out, line = _graph_text(result)
    # the map lists the old vertices in order, and JSON sorts its keys
    vmap = {str(v + 1): (None if w is None else w + 1) for v, w in trace.vertex_map.items()}
    arrows = ", ".join(f"{k}->{'gone' if w is None else w}" for k, w in vmap.items())
    return {"graph_text": out, "vertex_map": vmap}, [line, f"vertex-map: {arrows}"]


def cmd_frame_circuits(g, args):
    from .frame import enumerate_frame_circuits

    fcs = enumerate_frame_circuits(g)
    lines = [f"{fc.kind}: {_eset(fc.edge_set)}" for fc in fcs]
    lines.append(f"count: {len(fcs)}")
    return {"circuits": [{"kind": fc.kind, "edges": sorted(fc.edge_set)} for fc in fcs]}, lines


def cmd_closure(g, args):
    from .frame import closure

    out = closure(g, _edge_list_arg(args.edges))
    return {"closure": sorted(out)}, [f"closure: {_eset(out)}"]


def cmd_rank(g, args):
    from .frame import rank

    r = rank(g, _edge_list_arg(args.edges) if args.edges is not None else None)
    return {"rank": r}, [f"rank: {r}"]


def cmd_matrix(g, args):
    from .matrices import adjacency_matrix, degree_matrix, incidence_matrix, laplacian

    which = {
        "incidence": incidence_matrix,
        "adjacency": adjacency_matrix,
        "laplacian": laplacian,
        "degree": degree_matrix,
    }[args.which]
    m = which(g)
    lines = [" ".join(f"{x:3d}" for x in row) for row in m]
    return {"which": args.which, "matrix": m}, lines


def cmd_matrix_tree(g, args):
    from .matrices import matrix_tree

    rep = matrix_tree(g)
    lines = [
        f"det-laplacian: {rep.det_laplacian}",
        "circle-counts: " + ",".join(map(str, rep.circle_counts)),
        f"weighted-sum: {rep.weighted_sum}",
        f"consistent: {str(rep.consistent).lower()}",
    ]
    payload = {
        "det_laplacian": rep.det_laplacian,
        "circle_counts": list(rep.circle_counts),
        "weighted_sum": rep.weighted_sum,
        "consistent": rep.consistent,
    }
    return payload, lines


def cmd_spectrum(g, args):
    from .matrices import adjacency_matrix, laplacian, spectrum

    m = adjacency_matrix(g) if args.which == "adjacency" else laplacian(g)
    eig = [_fmt_float(x) for x in spectrum(m)]
    return {"which": args.which, "eigenvalues": eig}, [
        "eigenvalues: " + ", ".join(f"{x:.12g}" for x in eig)
    ]


def cmd_regions(g, args):
    from .orientation import region_count
    from .polynomial import format_polynomial

    rep = region_count(g, oracle=args.oracle, count_acyclic=args.acyclic)
    lines = [
        f"regions: {rep.region_count}",
        f"charpoly: {format_polynomial(rep.char_poly)}",
    ]
    payload = {
        "regions": rep.region_count,
        "charpoly": format_polynomial(rep.char_poly),
        "coefficients": list(rep.char_poly.coeffs),
    }
    if rep.sign_vector_regions is not None:
        lines.append(f"oracle-regions: {rep.sign_vector_regions}")
        payload["oracle_regions"] = rep.sign_vector_regions
    if rep.acyclic_count is not None:
        lines.append(f"acyclic: {rep.acyclic_count}")
        payload["acyclic"] = rep.acyclic_count
    return payload, lines


def cmd_acyclic(g, args):
    from .orientation import region_count

    c = region_count(g).region_count
    return {"acyclic": c}, [f"acyclic: {c}"]


def cmd_charpoly(g, args):
    from .orientation import characteristic_polynomial
    from .polynomial import format_polynomial

    p = characteristic_polynomial(g)
    return {"charpoly": format_polynomial(p), "coefficients": list(p.coeffs)}, [format_polynomial(p)]


def cmd_chromatic(g, args):
    from .coloring import _least_k, chromatic_poly_delcon, count_proper
    from .polynomial import format_polynomial

    zf = args.zero_free
    if args.algorithm == "count":
        c = count_proper(g, args.k, zero_free=zf)  # raises SgError naming k when --k is missing
        return {"count": c, "k": args.k}, [f"count: {c}"]
    if args.algorithm == "expansion":
        if zf:
            raise SgError(
                "--algorithm expansion computes chi only; "
                "use --algorithm delcon or subset for chi* (--zero-free)"
            )
        from .oracles import chromatic_via_expansion

        p = chromatic_via_expansion(g)
    elif args.algorithm == "subset":
        from .oracles import chromatic_poly_subset

        p = chromatic_poly_subset(g, zero_free=zf)
    polys = chromatic_poly_delcon(g), chromatic_poly_delcon(g, zero_free=True)
    if args.algorithm == "delcon":
        p = polys[zf]
    chi, chi_star = _least_k(*polys, g.n)
    lines = [format_polynomial(p)]
    lines.append(f"chromatic-number: {chi}, zero-free: {chi_star}")
    payload = {
        "polynomial": format_polynomial(p),
        "coefficients": list(p.coeffs),
        "zero_free": zf,
        "chromatic_number": chi,
        "zero_free_chromatic_number": chi_star,
    }
    return payload, lines


def cmd_catalog(g, args):
    from .coloring import FAMILIES, catalog
    from .polynomial import format_polynomial

    names = {f.replace("_", ""): f for f in FAMILIES}  # the CLI name drops the underscores
    family = names.get(args.family)
    if family is None:
        raise SgError(f"unknown family {args.family!r} (choose from {sorted(names)})")
    n = args.n
    edge_list = None
    if family in ("pm_kn", "pm_kn_full"):
        if n is not None and n > 0:  # built from --n, not read: bound the edges it would have
            core._cap("input-edge", n * (n - 1) + (n if family == "pm_kn_full" else 0), args.max_edges)
    elif g is None:
        raise SgError("this family needs an input " + ("graph" if family.startswith("full") else "base graph"))
    elif not family.startswith("full"):
        n, edge_list = g.n, _link_ends(g)
    h, chi, chi_star = catalog(family, base=g, n=n, edge_list=edge_list)
    out, line = _graph_text(h)
    lines = [line]
    payload = {"graph_text": out}
    if chi is not None:
        lines.append(f"chi: {format_polynomial(chi)}")
        payload["chi"] = format_polynomial(chi)
    if chi_star is not None:
        lines.append(f"chi*: {format_polynomial(chi_star)}")
        payload["chi_star"] = format_polynomial(chi_star)
    return payload, lines


def cmd_linegraph(g, args):
    from .linegraph import line_graph, reduced_line_graph

    res = reduced_line_graph(g) if args.reduced else line_graph(g)
    out, line = _graph_text(res.graph)
    lines = [line, "vertices: " + ",".join(res.vertex_labels)]
    return {"graph_text": out, "vertex_labels": list(res.vertex_labels)}, lines


def cmd_glinegraph(g, args):
    from .linegraph import generalized_line_graph, reduced_line_graph, switching_isomorphic

    try:
        mult = [int(x) for x in args.m.split(",")]
    except ValueError:
        raise SgError(f"bad multiplicity list {args.m!r}") from None
    ends = [e.ends for e in g.edges]
    # the petal graph is built from --m, not read: bound its edges before building it
    core._cap("input-edge", len(ends) + 2 * sum(mult), args.max_edges)
    src, lam = generalized_line_graph(g.n, ends, mult)
    red = reduced_line_graph(src).graph
    iso = switching_isomorphic(red, lam) is not None
    (out1, line1), (out2, line2) = _graph_text(src), _graph_text(lam)
    lines = [line1, "---", line2, f"identity: {str(iso).lower()}"]
    return {"petal_graph_text": out1, "generalized_line_graph_text": out2, "identity": iso}, lines


def cmd_roots(g, args):
    from .angle import root_system

    rs = root_system(args.name, args.n)
    vecs = sorted(rs.vectors)
    lines = [f"{rs.name}({rs.n}): {len(rs)} vectors"]
    for v in vecs:
        lines.append("(" + ", ".join(str(x) for x in v) + ")")
    payload = {
        "name": rs.name,
        "n": rs.n,
        "count": len(rs),
        "vectors": [[str(x) for x in v] for v in vecs],
    }
    return payload, lines


def cmd_gramian(g, args):
    from fractions import Fraction

    from .angle import construct_gramian

    try:
        nu = Fraction(args.nu)
        float(nu)  # construct_gramian's vectors are float square roots
    except (ValueError, ZeroDivisionError, OverflowError):
        raise SgError(f"--nu must be a rational number within float range, got {args.nu!r}") from None
    rep = construct_gramian(g, nu, anti=args.anti)
    if rep is None:
        return {"exists": False}, ["exists: false"]
    lines = [f"exists: true", f"dimension: {rep.dimension}"]
    vecs = [[_fmt_float(x) for x in v] for v in rep.rho]
    for v in vecs:
        lines.append("(" + ", ".join(f"{x:.12g}" for x in v) + ")")
    return {"exists": True, "dimension": rep.dimension, "vectors": vecs, "nu": str(nu)}, lines


# ---------------------------------------------------------------------------
# argument parsing


def _arg(*flags, **options):
    return flags, options


_INPUT = _arg("input", help="graph file in sg 1 format")

# verb -> (handler, the verb's own arguments in the order they are added)
VERBS = {
    "info": (cmd_info, [_INPUT]),
    "balance": (cmd_balance, [_INPUT]),
    "switch": (cmd_switch, [_INPUT, _arg("--vertices", "-x", required=True, help="comma list, 1-based")]),
    "balancing-edges": (cmd_balancing_edges, [_INPUT]),
    "delete": (cmd_delete, [_INPUT, _arg("--edges", "-e", required=True)]),
    "contract": (cmd_contract, [_INPUT, _arg("--edges", "-e", required=True)]),
    "frame-circuits": (cmd_frame_circuits, [_INPUT]),
    "closure": (cmd_closure, [_INPUT, _arg("--edges", "-s", default="")]),
    "rank": (cmd_rank, [_INPUT, _arg("--edges", "-s", default=None)]),
    "matrix": (cmd_matrix, [
        _INPUT,
        _arg("--which", choices=["incidence", "adjacency", "laplacian", "degree"], default="incidence"),
    ]),
    "matrix-tree": (cmd_matrix_tree, [_INPUT]),
    "spectrum": (cmd_spectrum, [
        _INPUT,
        _arg("--which", choices=["adjacency", "laplacian"], default="adjacency"),
    ]),
    "regions": (cmd_regions, [
        _INPUT,
        _arg("--oracle", action="store_true"),
        _arg("--acyclic", action="store_true"),
    ]),
    "acyclic": (cmd_acyclic, [_INPUT]),
    "charpoly": (cmd_charpoly, [_INPUT]),
    "chromatic": (cmd_chromatic, [
        _INPUT,
        _arg("--zero-free", action="store_true"),
        _arg("--algorithm", choices=["delcon", "subset", "expansion", "count"], default="delcon"),
        _arg("--k", type=int, default=None),
    ]),
    "catalog": (cmd_catalog, [
        _arg("input", nargs="?", default=None, help="sg 1 file: all of it for full and fullloops, else its links"),
        _arg("--family", required=True),
        _arg("--n", type=int, default=None),
    ]),
    "linegraph": (cmd_linegraph, [_INPUT, _arg("--reduced", action="store_true")]),
    "glinegraph": (cmd_glinegraph, [
        _INPUT,
        _arg("--m", required=True, help="comma list of vertex multiplicities"),
    ]),
    "roots": (cmd_roots, [
        _arg("--name", required=True, choices=["A", "B", "C", "D", "E8"]),
        _arg("--n", type=int, default=None),
    ]),
    "gramian": (cmd_gramian, [_INPUT, _arg("--nu", required=True), _arg("--anti", action="store_true")]),
}


def build_parser(verb=None):
    """The sgtool parser.  For a verb in VERBS it holds only that verb's
    subparser, which parses and reports errors exactly as in the full
    parser; otherwise (--help, a typo, nothing) it holds all of them."""
    # --help shows the module docstring less its last paragraph, on launch cost
    ap = argparse.ArgumentParser(prog="sgtool", description=__doc__.rsplit("\n\n", 1)[0])
    one = verb in VERBS
    # a parser for one verb still lists every verb in its usage line
    sub = ap.add_subparsers(dest="verb", required=True, metavar="{" + ",".join(VERBS) + "}" if one else None)
    for name in [verb] if one else VERBS:
        fn, arguments = VERBS[name]
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true")
        p.add_argument("--threads", type=int, default=1, help="accepted; output is identical for any value")
        p.add_argument("--max-edges", type=int, default=None)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return ap


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        g = _load(args) if getattr(args, "input", None) is not None else None
        payload, lines = args.fn(g, args)
    except SgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload, lines)
    return 0


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`sgtool ... | head`): point it at devnull so
        # the flush at exit cannot raise again, and exit nonzero
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
