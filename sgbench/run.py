#!/usr/bin/env python3
"""signedgraph benchmark.

    python3 sgbench/run.py --workload {cli-desk,poly-large,exp-desk} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Inputs come from the seed alone.  Ops run closed loop with one client, in
whole passes over the workload's op list until the op time spent reaches
``--seconds`` (at least two passes).  Every op's output is checked outside
its timed region.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10
FIT_POINTS = 3  # the largest sizes of each shape enter the exponent fit

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (kernel span, shape family) for the fitted exponents of poly-large
EXPONENTS = {
    "core.parse.exp": ("core.parse", "all"),
    "core.serialize.exp": ("core.serialize", "all"),
    "balance.balance_partition.exp_deep": ("balance.balance_partition", "deep"),
    "balance.balance_partition.exp_shallow": ("balance.balance_partition", "shallow"),
    "balance.harary_bipartition.exp": ("balance.harary_bipartition", "deep"),
    "balance.switching_equivalent.exp": ("balance.switching_equivalent", "deep"),
    "balance.classify_balancing_edges.exp": ("balance.classify_balancing_edges", "deep"),
    "frame.rank.exp": ("frame.rank", "deep"),
    "frame.closure.exp": ("frame.closure", "deep"),
    "minors.contract_set.exp": ("minors.contract_set", "deep"),
}

SELF_MS = (
    "core.parse", "balance.balance_partition", "coloring.chromatic_poly_subset",
    "orientation.characteristic_polynomial", "frame.enumerate_frame_circuits", "frame.closed_sets",
    "matrices.matrix_tree", "matrices.bareiss_determinant", "linegraph.switching_isomorphic",
    "angle.construct_gramian",
)

PER_LAYER = (
    [("startup.interp_ms", "ms"), ("startup.import.numpy_ms", "ms"),
     ("startup.import.signedgraph_ms", "ms"), ("startup.import.numpy_share", "ratio"),
     ("cli.argparse_ms", "ms/op"), ("cli.emit_ms", "ms/op"), ("core.parse.ms", "ms/op")]
    + [(name, "exponent") for name in EXPONENTS]
    + [(f"{name}.self_ms", "ms/op") for name in SELF_MS]
    + [("balance.balance_partition.calls", "calls/op"), ("balance.balance_partition.us_per_call", "us"),
       ("coloring.delcon.calls", "calls/op"), ("coloring.delcon.memo_hit_ratio", "ratio"),
       ("minors.contract_edge.calls", "calls/op"), ("orientation.enumerate_acyclic.accept_ratio", "ratio"),
       ("polynomial.ops", "calls/op")]
    + [(f"{mod}.{what}", unit) for mod in spans.MODULES for what, unit in (("self_ms", "ms/op"), ("calls", "calls/op"))]
    + [("trace.overhead_ratio", "ratio")]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# run record and statistics


def run_record(args):
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "signedgraph")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(samples):
    """(value, percentile, samples beyond): the highest order statistic with
    at least TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def fit_exponent(points):
    """Slope of log2 t against log2 x pooled within shapes.  points maps
    shape -> {x: [durations]}; each shape contributes its FIT_POINTS largest
    sizes, using the median duration per size."""
    sxy = sxx = 0.0
    for by_x in points.values():
        xs = sorted(by_x)[-FIT_POINTS:]
        if len(xs) < 2:
            continue
        lx = [math.log2(x) for x in xs]
        lt = [math.log2(max(statistics.median(by_x[x]), 1)) for x in xs]
        mx, mt = statistics.fmean(lx), statistics.fmean(lt)
        sxy += sum((a - mx) * (b - mt) for a, b in zip(lx, lt))
        sxx += sum((a - mx) ** 2 for a in lx)
    return sxy / sxx if sxx else 0.0


# ---------------------------------------------------------------------------
# measurement loop


class Loop:
    """Closed loop over whole passes; op time excludes output checks."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        # acyclic orientations found and tried, for the traced accept ratio
        self.accepted = 0
        self.orientations = 0

    def record(self, label, dt, ok):
        self.attempted += 1
        if ok:
            self.times.append(dt)
        else:
            self.failed += 1
            log(f"FAILED op {label}")


def safe(fn, *args):
    try:
        return fn(*args)
    except Exception:  # a failed op or check is counted, never fatal
        log(traceback.format_exc())
        return None


def time_op(op, sg, loop, tracer=None):
    """Run one in-process op, check it outside the timed region, record it
    in loop, and return its wall time in seconds."""
    span = tracer.open("op:" + op.label) if tracer else None
    t0 = time.perf_counter()
    out = safe(op.run, sg)
    dt = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    ok = out is not None and bool(safe(op.check, out))
    loop.record(op.label, dt, ok)
    if ok and getattr(op, "orientations", None):
        loop.accepted += out
        loop.orientations += op.orientations
    return dt


def paired_passes(seconds, plain_pass, traced_pass):
    """Untraced and traced passes in pairs, alternating which runs first,
    until their op time reaches seconds.  Returns (plain s, traced s, pairs)."""
    plain = traced = 0.0
    pairs = 0
    while pairs < 1 or plain + traced < seconds:
        if pairs % 2:
            traced += traced_pass()
            plain += plain_pass()
        else:
            plain += plain_pass()
            traced += traced_pass()
        pairs += 1
    return plain, traced, pairs


def end_to_end(loop, spent, setup_s, rss_mb):
    times_ms = [t * 1e3 for t in loop.times] or [float("nan")]
    t_value, t_pct, t_beyond = tail(times_ms)
    metrics = {
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": t_value,
        "ops_per_s": len(loop.times) / spent if spent else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    print(f"op_tail_ms is p{t_pct:.1f} of {len(times_ms)} samples, {t_beyond} beyond it")
    print(f"failed_ratio {loop.failed / max(loop.attempted, 1):.4f} ({loop.failed} of {loop.attempted})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


# ---------------------------------------------------------------------------
# in-process workloads


def import_library():
    sys.path.insert(0, SRC)
    import signedgraph
    return signedgraph


def library_modules(sg):
    mods = {name: getattr(sg, name) for name in spans.MODULES if name != "cli"}
    import signedgraph.cli
    mods["cli"] = signedgraph.cli
    mods[""] = sg
    return mods


def child_startup():
    """Startup of SETUP_REPS fresh interpreters that import signedgraph under
    -X importtime: {"interp", "numpy", "signedgraph"} -> list of ms.  An
    in-process import can be timed only once, and one reading swings by a
    third on a shared machine."""
    code = "import time; t0 = time.monotonic_ns(); import signedgraph; print(t0)"
    cmd = [sys.executable, "-X", "importtime", "-c", code]
    out = {"interp": [], "numpy": [], "signedgraph": []}
    for _ in range(SETUP_REPS):
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, check=True)
        imports = import_times(proc.stderr)
        out["interp"].append((int(proc.stdout) - spawn_ns) / 1e6)
        out["numpy"].append(imports.get("numpy", 0) / 1e3)
        out["signedgraph"].append(imports["signedgraph"] / 1e3)
    return out


def startup_metrics(startup):
    """Medians of the startup split gathered from fresh interpreters."""
    return {
        "startup.interp_ms": statistics.median(startup["interp"]),
        "startup.import.numpy_ms": statistics.median(startup["numpy"]),
        "startup.import.signedgraph_ms": statistics.median(startup["signedgraph"]),
        "startup.import.numpy_share": statistics.median(
            n / s for n, s in zip(startup["numpy"], startup["signedgraph"]) if s),
    }


def run_in_process(args, build, warm):
    sg = import_library()
    startup = child_startup()
    import_s = statistics.median(startup["signedgraph"]) / 1e3
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ops = build(args.seed, sg)
        for op in warm(args.seed, sg):
            op.run(sg)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    # A new order every pass spreads ops of like cost over the run, and moves
    # the collector's pauses, which recur at the same allocation counts, onto
    # different ops; with one fixed order the op they hit, and so the median,
    # changed from seed to seed.
    order = random.Random(f"{args.seed}:order")

    def one_pass(tracer):
        order.shuffle(ops)
        return sum(time_op(op, sg, loop, tracer) for op in ops)

    # one pass whose times are dropped: it runs a quarter slower than later
    # ones while the heap grows, and its checks compute the cached reference
    # answers; its ops still count as attempted and, if wrong, as failed
    loop = Loop()
    one_pass(None)
    loop.times.clear()
    loop.accepted = loop.orientations = 0
    if not args.trace:
        spent = passes = 0
        while passes < MIN_PASSES or spent < args.seconds:
            spent += one_pass(None)
            passes += 1
        print(f"passes {passes}, ops {loop.attempted}, op time {spent:.3f} s")
        return loop, end_to_end(loop, spent, setup_s, peak_rss_mb(False))

    tracer = spans.Tracer()

    def traced_pass():
        tracer.install(library_modules(sg))
        try:
            return one_pass(tracer)
        finally:
            tracer.uninstall()

    plain, traced, pairs = paired_passes(args.seconds, lambda: one_pass(None), traced_pass)
    summary = spans.Summary()
    summary.add(tracer.dump())
    ops_traced = pairs * len(ops)
    print(f"pairs {pairs}, traced ops {ops_traced}, spans {len(tracer.spans) // spans.FIELDS}")
    layer = layer_metrics(summary, ops_traced, traced / plain if plain else 0.0)
    layer.update(startup_metrics(startup))
    if loop.orientations:
        layer["orientation.enumerate_acyclic.accept_ratio"] = loop.accepted / loop.orientations
    if ops and hasattr(ops[0], "family"):
        for metric, (name, family) in EXPONENTS.items():
            layer[metric] = fit_exponent(series(summary, ops, name, family))
    return loop, layer


def series(summary, jobs, name, family):
    """shape -> {n + m: [durations of top-level calls]} for one kernel."""
    out = {}
    for job in jobs:
        if family != "all" and job.family != family:
            continue
        durs = summary.top.get((name, job.label))
        if durs:
            out.setdefault(job.shape, {}).setdefault(job.size, []).extend(durs)
    return out


def layer_metrics(summary, ops, overhead):
    """Per-layer values from a span summary; ops normalizes per-op figures."""
    per_op = lambda x: x / ops if ops else 0.0  # noqa: E731
    out = {name: 0.0 for name, _ in PER_LAYER}
    incl_ms = lambda *names: per_op(sum(summary.incl_ns.get(n, 0) for n in names) / 1e6)  # noqa: E731
    out["cli.argparse_ms"] = incl_ms("cli.build_parser", "cli.parse_args")
    out["cli.emit_ms"] = incl_ms("cli.emit")
    out["core.parse.ms"] = incl_ms("core.parse")
    for name in SELF_MS:
        out[f"{name}.self_ms"] = per_op(summary.self_ns.get(name, 0) / 1e6)
    bp = "balance.balance_partition"
    out[f"{bp}.calls"] = per_op(summary.calls.get(bp, 0))
    if summary.calls.get(bp):
        out[f"{bp}.us_per_call"] = summary.incl_ns[bp] / summary.calls[bp] / 1e3
    delcon = summary.calls.get("coloring.delcon", 0)
    out["coloring.delcon.calls"] = per_op(delcon)
    if delcon:
        out["coloring.delcon.memo_hit_ratio"] = summary.delcon_hits / delcon
    out["minors.contract_edge.calls"] = per_op(summary.calls.get("minors.contract_edge", 0))
    out["polynomial.ops"] = per_op(sum(c for n, c in summary.calls.items() if n.startswith("polynomial.IntPolynomial.")))
    calls, self_ns = summary.module_totals()
    for mod in spans.MODULES:
        out[f"{mod}.self_ms"] = per_op(self_ns.get(mod, 0) / 1e6)
        out[f"{mod}.calls"] = per_op(calls.get(mod, 0))
    out["trace.overhead_ratio"] = overhead
    return out


def build_poly(seed, sg):
    import poly_large
    return poly_large.jobs(seed)


def warm_poly(seed, sg):
    import poly_large
    return poly_large.warm_jobs(seed)


def build_exp(seed, sg):
    import exp_desk
    return exp_desk.tasks(seed, sg)


def warm_exp(seed, sg):
    import exp_desk
    return exp_desk.warm_tasks(seed, sg)


# ---------------------------------------------------------------------------
# cli-desk


def child_env():
    env = dict(os.environ)
    env.pop("SGTOOL_MAX_EDGES", None)
    env["PYTHONPATH"] = SRC
    return env


def import_times(stderr):
    """Cumulative microseconds per module from -X importtime output."""
    out = {}
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("import time:") and "|" in line:
            parts = line[len("import time:"):].split("|")
            try:
                out[parts[2].strip()] = int(parts[1])
            except ValueError:
                continue
    return out


def run_cli(args):
    import cli_desk

    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".sgbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run_cli(args, cli_desk, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still has its directory there
            pass


def _run_cli(args, cli_desk, workdir):
    env = child_env()
    base = [sys.executable, "-m", "signedgraph.cli"]
    setups = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        graphs = cli_desk.corpus(args.seed)
        invs = cli_desk.invocations(args.seed, graphs)
        paths = cli_desk.write_corpus(graphs, workdir)
        # one launch writes the bytecode caches and warms the file cache
        subprocess.run(base + ["info", paths["sigma4"]], env=env, cwd=workdir, capture_output=True, check=True)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)
    checker = cli_desk.Checker(graphs)
    loop = Loop()
    span_path = os.path.join(workdir, "spans.json")
    summary = spans.Summary()
    startup = {"interp": [], "numpy": [], "signedgraph": []}

    def launch(inv, traced):
        argv = inv.argv(paths)
        cmd = ([sys.executable, "-X", "importtime", os.path.join(HERE, "shim.py"), span_path] + argv
               if traced else base + argv)
        spawn_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True)
        dt = time.perf_counter() - t0
        ok = bool(safe(checker.check, inv, proc.returncode, proc.stdout))
        if not ok:
            log(f"{inv.key}: exit {proc.returncode}\n{proc.stderr.decode(errors='replace')[-2000:]}")
        loop.record(inv.key, dt, ok)
        if traced and os.path.isfile(span_path):
            with open(span_path) as fh:
                dump = json.load(fh)
            os.remove(span_path)
            summary.add(dump)
            imports = import_times(proc.stderr)
            startup["interp"].append((dump["t0"] - spawn_ns) / 1e6)
            startup["numpy"].append(imports.get("numpy", 0) / 1e3)
            startup["signedgraph"].append((imports.get("signedgraph", 0) + imports.get("signedgraph.cli", 0)) / 1e3)
        return dt

    def one_pass(traced):
        return sum(launch(inv, traced) for inv in invs)

    if not args.trace:
        spent = passes = 0
        while passes < MIN_PASSES or spent < args.seconds:
            spent += one_pass(False)
            passes += 1
        print(f"passes {passes}, launches {loop.attempted}, op time {spent:.3f} s")
        return loop, end_to_end(loop, spent, setup_s, peak_rss_mb(True))

    plain, traced, pairs = paired_passes(args.seconds, lambda: one_pass(False), lambda: one_pass(True))
    ops = pairs * len(invs)
    print(f"pairs {pairs}, traced launches {ops}")
    layer = layer_metrics(summary, ops, traced / plain if plain else 0.0)
    layer.update(startup_metrics(startup))
    return loop, layer


# ---------------------------------------------------------------------------


WORKLOADS = {
    "cli-desk": run_cli,
    "poly-large": lambda args: run_in_process(args, build_poly, warm_poly),
    "exp-desk": lambda args: run_in_process(args, build_exp, warm_exp),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "signedgraph", "__init__.py")):
        log(f"error: no signedgraph sources under {SRC}; run from the root of a checkout")
        return 2
    print("run " + json.dumps(run_record(args), sort_keys=True))
    loop, metrics = WORKLOADS[args.workload](args)
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": metrics[name], "unit": units[name]} for name, _ in PER_LAYER}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
