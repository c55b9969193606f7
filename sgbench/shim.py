"""Launcher shim for the traced cli-desk run.

    python -X importtime sgbench/shim.py SPANS_OUT VERB [ARGS...]

Runs ``signedgraph.cli.run`` with the span recorder installed, exits with its
code, and writes the spans and the shim's start time (``time.monotonic_ns``)
to SPANS_OUT as JSON.  Stdout is the CLI's own, so traced launches are checked
like untraced ones.
"""

import time

T0 = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def _wrap_parser(tracer, build):
    build = tracer.wrap("cli.build_parser", build)

    def factory(*args, **kwargs):
        parser = build(*args, **kwargs)
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    return factory


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import signedgraph
    import signedgraph.cli as cli

    mods = {name: getattr(signedgraph, name) for name in spans.MODULES}
    mods[""] = signedgraph
    tracer = spans.Tracer()
    tracer.install(mods, extra_wrappers=(
        (cli, "_emit", lambda t, fn: t.wrap("cli.emit", fn)),
        (cli, "build_parser", _wrap_parser),
    ))
    span = tracer.open("op:" + (argv[0] if argv else ""))
    code = cli.run(argv)
    tracer.close(span)
    tracer.uninstall()
    sys.stdout.flush()
    dump = tracer.dump()
    dump["spans"] = dump["spans"].tolist()
    dump["t0"] = T0
    with open(out_path, "w") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
