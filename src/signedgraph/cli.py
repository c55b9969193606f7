"""sgtool: command-line front end.

Every verb reads the `sg 1` text format, prints a deterministic text report
(or canonical JSON with --json), and exits 0 on success, 1 on a domain error,
2 on usage errors.  --threads is accepted for interface stability; all
analyses are deterministic and single-threaded.

Only `core` is imported with this module.  Each verb handler imports what it
uses from the other submodules when it runs, so a launch loads just the
modules of its verb, and numpy only for spectrum and gramian.
"""

from __future__ import annotations

import argparse
import json
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
    cap = args.max_edges
    if cap is None:
        env = os.environ.get("SGTOOL_MAX_EDGES")
        try:
            cap = int(env) if env else None
        except ValueError:
            raise SgError(f"SGTOOL_MAX_EDGES must be an integer, got {env!r}") from None
    else:
        print(f"warning: edge cap overridden to {cap}", file=sys.stderr)
    core._cap("input-vertex", g.n)
    core._cap("input-edge", len(g.edges), cap)
    return g


def _graph_summary(g: SignedGraph):
    kinds = {"link": 0, "loop": 0, "half": 0, "loose": 0}
    for e in g.edges:
        kinds[e.kind.value] += 1
    return {"n": g.n, "m": len(g.edges), "kinds": kinds}


def _edge_list_arg(raw):
    return [s for s in raw.split(",") if s]


def _emit(args, payload, text_lines):
    if args.json:
        payload = {"schema": SCHEMA, "verb": args.verb, **payload}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# verb handlers


def cmd_info(args):
    g = _load(args)
    s = _graph_summary(g)
    lines = [
        f"n: {g.n}",
        f"m: {len(g.edges)}",
        "kinds: " + ", ".join(f"{k}={v}" for k, v in sorted(s["kinds"].items())),
        "edges: " + ",".join(e.id for e in g.edges),
    ]
    _emit(args, {"graph": s, "edges": [e.id for e in g.edges]}, lines)


def cmd_balance(args):
    from .balance import balance_partition, harary_bipartition

    g = _load(args)
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
    _emit(args, payload, lines)


def cmd_switch(args):
    from .balance import switch_set

    g = _load(args)
    verts = []
    for tok in _edge_list_arg(args.vertices):
        try:
            v = int(tok) - 1
        except ValueError:
            raise SgError(f"bad vertex {tok!r}") from None
        if not 0 <= v < g.n:
            raise SgError(f"vertex {tok} out of range")
        verts.append(v)
    out = serialize(switch_set(g, verts)).decode()
    _emit(args, {"graph_text": out}, [out.rstrip("\n")])


def cmd_balancing_edges(args):
    from .balance import classify_balancing_edges

    g = _load(args)
    cls = classify_balancing_edges(g)
    lines = [f"{eid}: {cls[eid]}" for eid in sorted(cls)]
    _emit(args, {"classification": cls}, lines)


def cmd_delete(args):
    from .minors import delete_edges

    g = _load(args)
    out = serialize(delete_edges(g, _edge_list_arg(args.edges))).decode()
    _emit(args, {"graph_text": out}, [out.rstrip("\n")])


def cmd_contract(args):
    from .minors import contract_set

    g = _load(args)
    result, trace = contract_set(g, _edge_list_arg(args.edges))
    out = serialize(result).decode()
    vmap = {
        str(v + 1): (None if w is None else w + 1) for v, w in trace.vertex_map.items()
    }
    lines = [out.rstrip("\n")]
    lines.append(
        "vertex-map: "
        + ", ".join(
            f"{k}->{'gone' if v is None else v}" for k, v in sorted(vmap.items(), key=lambda kv: int(kv[0]))
        )
    )
    _emit(args, {"graph_text": out, "vertex_map": vmap}, lines)


def cmd_frame_circuits(args):
    from .frame import enumerate_frame_circuits

    g = _load(args)
    fcs = enumerate_frame_circuits(g)
    lines = [f"{fc.kind}: {_eset(fc.edge_set)}" for fc in fcs]
    lines.append(f"count: {len(fcs)}")
    _emit(
        args,
        {"circuits": [{"kind": fc.kind, "edges": sorted(fc.edge_set)} for fc in fcs]},
        lines,
    )


def cmd_closure(args):
    from .frame import closure

    g = _load(args)
    s = _edge_list_arg(args.edges) if args.edges else []
    out = closure(g, s)
    _emit(args, {"closure": sorted(out)}, [f"closure: {_eset(out)}"])


def cmd_rank(args):
    from .frame import rank

    g = _load(args)
    s = _edge_list_arg(args.edges) if args.edges is not None else None
    r = rank(g, s)
    _emit(args, {"rank": r}, [f"rank: {r}"])


def cmd_matrix(args):
    from .matrices import adjacency_matrix, degree_matrix, incidence_matrix, laplacian

    g = _load(args)
    which = {
        "incidence": incidence_matrix,
        "adjacency": adjacency_matrix,
        "laplacian": laplacian,
        "degree": degree_matrix,
    }[args.which]
    m = which(g)
    lines = [" ".join(f"{x:3d}" for x in row) for row in m]
    _emit(args, {"which": args.which, "matrix": m}, lines)


def cmd_matrix_tree(args):
    from .matrices import matrix_tree

    g = _load(args)
    rep = matrix_tree(g)
    lines = [
        f"det-laplacian: {rep.det_laplacian}",
        "circle-counts: " + ",".join(map(str, rep.circle_counts)),
        f"weighted-sum: {rep.weighted_sum}",
        f"consistent: {str(rep.consistent).lower()}",
    ]
    _emit(
        args,
        {
            "det_laplacian": rep.det_laplacian,
            "circle_counts": list(rep.circle_counts),
            "weighted_sum": rep.weighted_sum,
            "consistent": rep.consistent,
        },
        lines,
    )


def cmd_spectrum(args):
    from .matrices import adjacency_matrix, laplacian, spectrum

    g = _load(args)
    m = adjacency_matrix(g) if args.which == "adjacency" else laplacian(g)
    eig = [_fmt_float(x) for x in spectrum(m)]
    _emit(args, {"which": args.which, "eigenvalues": eig}, [
        "eigenvalues: " + ", ".join(f"{x:.12g}" for x in eig)
    ])


def cmd_regions(args):
    from .orientation import region_count
    from .polynomial import format_polynomial

    g = _load(args)
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
    _emit(args, payload, lines)


def cmd_acyclic(args):
    from .orientation import enumerate_acyclic

    g = _load(args)
    c = enumerate_acyclic(g)
    _emit(args, {"acyclic": c}, [f"acyclic: {c}"])


def cmd_charpoly(args):
    from .orientation import characteristic_polynomial
    from .polynomial import format_polynomial

    g = _load(args)
    p = characteristic_polynomial(g)
    _emit(
        args,
        {"charpoly": format_polynomial(p), "coefficients": list(p.coeffs)},
        [format_polynomial(p)],
    )


def cmd_chromatic(args):
    from .coloring import chromatic_numbers, chromatic_poly_delcon, count_proper
    from .polynomial import format_polynomial

    g = _load(args)
    zf = args.zero_free
    if args.algorithm == "count":
        if args.k is None:
            raise SgError("--algorithm count needs --k")
        c = count_proper(g, args.k, zero_free=zf)
        _emit(args, {"count": c, "k": args.k}, [f"count: {c}"])
        return
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
    else:
        p = chromatic_poly_delcon(g, zero_free=zf)
    chi, chi_star = chromatic_numbers(g)
    lines = [format_polynomial(p)]
    lines.append(f"chromatic-number: {chi}, zero-free: {chi_star}")
    _emit(
        args,
        {
            "polynomial": format_polynomial(p),
            "coefficients": list(p.coeffs),
            "zero_free": zf,
            "chromatic_number": chi,
            "zero_free_chromatic_number": chi_star,
        },
        lines,
    )


FAMILIES = {
    "full": "full",
    "fullloops": "full_loops",
    "allpositive": "all_positive",
    "allpositivefull": "all_positive_full",
    "allnegative": "all_negative",
    "signedexpansion": "signed_expansion",
    "signedexpansionfull": "signed_expansion_full",
    "pmkn": "pm_kn",
    "pmknfull": "pm_kn_full",
}


def cmd_catalog(args):
    from .coloring import catalog
    from .polynomial import format_polynomial

    family = FAMILIES.get(args.family)
    if family is None:
        raise SgError(f"unknown family {args.family!r} (choose from {sorted(FAMILIES)})")
    base = None
    n = args.n
    edge_list = None
    if family in ("full", "full_loops"):
        if args.input is None:
            raise SgError("this family needs an input graph")
        base = _load(args)
    elif family not in ("pm_kn", "pm_kn_full"):
        if args.input is None:
            raise SgError("this family needs an input base graph")
        base_g = _load(args)
        n = base_g.n
        edge_list = [tuple(e.ends) for e in base_g.edges if e.kind is core.EdgeKind.LINK]
    g, chi, chi_star = catalog(family, base=base, n=n, edge_list=edge_list)
    out = serialize(g).decode()
    lines = [out.rstrip("\n")]
    payload = {"graph_text": out}
    if chi is not None:
        lines.append(f"chi: {format_polynomial(chi)}")
        payload["chi"] = format_polynomial(chi)
    if chi_star is not None:
        lines.append(f"chi*: {format_polynomial(chi_star)}")
        payload["chi_star"] = format_polynomial(chi_star)
    _emit(args, payload, lines)


def cmd_linegraph(args):
    from .linegraph import line_graph, reduced_line_graph

    g = _load(args)
    res = reduced_line_graph(g) if args.reduced else line_graph(g)
    out = serialize(res.graph).decode()
    lines = [out.rstrip("\n")]
    lines.append("vertices: " + ",".join(res.vertex_labels))
    _emit(
        args,
        {"graph_text": out, "vertex_labels": list(res.vertex_labels)},
        lines,
    )


def cmd_glinegraph(args):
    from .linegraph import generalized_line_graph, reduced_line_graph, switching_isomorphic

    g = _load(args)
    edge_list = [tuple(e.ends) for e in g.edges if e.kind is core.EdgeKind.LINK]
    try:
        mult = [int(x) for x in args.m.split(",")]
    except ValueError:
        raise SgError(f"bad multiplicity list {args.m!r}") from None
    src, lam = generalized_line_graph(g.n, edge_list, mult)
    red = reduced_line_graph(src).graph
    iso = switching_isomorphic(red, lam) is not None
    out1, out2 = serialize(src).decode(), serialize(lam).decode()
    lines = [out1.rstrip("\n"), "---", out2.rstrip("\n"), f"identity: {str(iso).lower()}"]
    _emit(
        args,
        {"petal_graph_text": out1, "generalized_line_graph_text": out2, "identity": iso},
        lines,
    )


def cmd_roots(args):
    from .angle import root_system

    rs = root_system(args.name, args.n)
    vecs = sorted(rs.vectors)
    lines = [f"{rs.name}({rs.n}): {len(rs)} vectors"]
    for v in vecs:
        lines.append("(" + ", ".join(str(x) for x in v) + ")")
    _emit(
        args,
        {
            "name": rs.name,
            "n": rs.n,
            "count": len(rs),
            "vectors": [[str(x) for x in v] for v in vecs],
        },
        lines,
    )


def cmd_gramian(args):
    from fractions import Fraction

    from .angle import construct_gramian

    g = _load(args)
    try:
        nu = Fraction(args.nu)
        float(nu)  # construct_gramian shifts A by float(nu)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise SgError(f"--nu must be a rational number within float range, got {args.nu!r}") from None
    rep = construct_gramian(g, nu, anti=args.anti)
    if rep is None:
        _emit(args, {"exists": False}, ["exists: false"])
        return
    lines = [f"exists: true", f"dimension: {rep.dimension}"]
    vecs = [[_fmt_float(x) for x in v] for v in rep.rho]
    for v in vecs:
        lines.append("(" + ", ".join(f"{x:.12g}" for x in v) + ")")
    _emit(
        args,
        {"exists": True, "dimension": rep.dimension, "vectors": vecs, "nu": str(nu)},
        lines,
    )


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    ap = argparse.ArgumentParser(prog="sgtool", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, needs_input=True):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if needs_input:
            p.add_argument("input", help="graph file in sg 1 format")
        p.add_argument("--json", action="store_true")
        p.add_argument("--threads", type=int, default=1, help="accepted; output is identical for any value")
        p.add_argument("--max-edges", type=int, default=None)
        return p

    add("info", cmd_info)
    add("balance", cmd_balance)
    p = add("switch", cmd_switch)
    p.add_argument("--vertices", "-x", required=True, help="comma list, 1-based")
    add("balancing-edges", cmd_balancing_edges)
    p = add("delete", cmd_delete)
    p.add_argument("--edges", "-e", required=True)
    p = add("contract", cmd_contract)
    p.add_argument("--edges", "-e", required=True)
    add("frame-circuits", cmd_frame_circuits)
    p = add("closure", cmd_closure)
    p.add_argument("--edges", "-s", default="")
    p = add("rank", cmd_rank)
    p.add_argument("--edges", "-s", default=None)
    p = add("matrix", cmd_matrix)
    p.add_argument("--which", choices=["incidence", "adjacency", "laplacian", "degree"], default="incidence")
    add("matrix-tree", cmd_matrix_tree)
    p = add("spectrum", cmd_spectrum)
    p.add_argument("--which", choices=["adjacency", "laplacian"], default="adjacency")
    p = add("regions", cmd_regions)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--acyclic", action="store_true")
    add("acyclic", cmd_acyclic)
    add("charpoly", cmd_charpoly)
    p = add("chromatic", cmd_chromatic)
    p.add_argument("--zero-free", action="store_true")
    p.add_argument("--algorithm", choices=["delcon", "subset", "expansion", "count"], default="delcon")
    p.add_argument("--k", type=int, default=None)
    p = add("catalog", cmd_catalog, needs_input=False)
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=None)
    p = add("linegraph", cmd_linegraph)
    p.add_argument("--reduced", action="store_true")
    p = add("glinegraph", cmd_glinegraph)
    p.add_argument("--m", required=True, help="comma list of vertex multiplicities")
    p = add("roots", cmd_roots, needs_input=False)
    p.add_argument("--name", required=True, choices=["A", "B", "C", "D", "E8"])
    p.add_argument("--n", type=int, default=None)
    p = add("gramian", cmd_gramian)
    p.add_argument("--nu", required=True)
    p.add_argument("--anti", action="store_true")
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        args.fn(args)
    except SgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
