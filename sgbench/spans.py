"""Span recorder for the traced run.

``Tracer.install`` replaces every public function of each signedgraph module
with a wrapper that records a span (name, start, end, parent span), in every
module namespace that bound the function by name: ``balance_partition`` is
patched in ``balance`` and also in ``coloring``, ``frame``, ``orientation``,
``minors``, ``cli`` and the package.  A few private or method entry points
are wrapped too (see ``EXTRA``).  Spans stay in memory in a flat array and are
summarized after the run; nothing in the library changes.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("core", "balance", "minors", "frame", "matrices", "orientation",
           "coloring", "linegraph", "angle", "polynomial", "cli")

# per-edge constructors: wrapping them would put the tracer's own cost inside
# parse's self time
SKIP = {"core.link", "core.loop", "core.half", "core.loose"}

# (module, owner class or None, attribute, span name)
EXTRA = (
    ("coloring", None, "_delcon", "coloring.delcon"),
    ("core", "SignedGraph", "with_edges", "core.SignedGraph.with_edges"),
    ("polynomial", "IntPolynomial", "__add__", "polynomial.IntPolynomial.add"),
    ("polynomial", "IntPolynomial", "__sub__", "polynomial.IntPolynomial.sub"),
    ("polynomial", "IntPolynomial", "__mul__", "polynomial.IntPolynomial.mul"),
    ("polynomial", "IntPolynomial", "__neg__", "polynomial.IntPolynomial.neg"),
    ("polynomial", "IntPolynomial", "scale", "polynomial.IntPolynomial.scale"),
    ("polynomial", "IntPolynomial", "compose_affine", "polynomial.IntPolynomial.compose_affine"),
)

FIELDS = 4  # name index, start ns, end ns, parent span index (-1 for none)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = array("q")
        self.stack = [-1]
        self.delcon_hits = 0
        self._undo = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name):
        i = len(self.spans) // FIELDS
        self.spans.extend((self.name_id(name), time.perf_counter_ns(), 0, self.stack[-1]))
        self.stack.append(i)
        return i

    def close(self, i):
        self.spans[i * FIELDS + 2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn):
        ni = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans) // FIELDS
            spans.extend((ni, 0, 0, stack[-1]))
            stack.append(i)
            spans[i * FIELDS + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i * FIELDS + 2] = clock()
                stack.pop()

        return wrapper

    def _wrap_delcon(self, fn):
        """The memo dict is the third argument; a call that leaves its size
        unchanged was answered from the memo."""
        inner = self.wrap("coloring.delcon", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(g, zero_free, memo):
            before = len(memo)
            out = inner(g, zero_free, memo)
            if len(memo) == before:
                tracer.delcon_hits += 1
            return out

        return wrapper

    def install(self, sg_modules, extra_wrappers=()):
        """Patch the library; sg_modules maps short module name -> module
        (plus "" -> the package).  extra_wrappers: (module, attr, wrapper
        factory) for callers that wrap further private entry points."""
        originals = {}
        for short in MODULES:
            mod = sg_modules.get(short)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name not in SKIP:
                    originals[obj] = self.wrap(name, obj)
        for short, owner, attr, name in EXTRA:
            mod = sg_modules.get(short)
            if mod is None:
                continue
            if owner is None:
                obj = getattr(mod, attr)
                originals[obj] = self._wrap_delcon(obj) if name == "coloring.delcon" else self.wrap(name, obj)
            else:
                cls = getattr(mod, owner)
                self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        for mod, attr, factory in extra_wrappers:
            self._set(mod, attr, factory(self, getattr(mod, attr)))
        for mod in sg_modules.values():
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = originals.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self):
        return {"names": self.names, "spans": self.spans, "delcon_hits": self.delcon_hits}


class Summary:
    """Per-name and per-module aggregates of one or more span dumps."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.delcon_hits = 0
        # durations of spans whose parent is an op span: (name, op label) -> [ns]
        self.top = defaultdict(list)

    def add(self, dump):
        names, flat = dump["names"], dump["spans"]
        self.delcon_hits += dump.get("delcon_hits", 0)
        count = len(flat) // FIELDS
        child = [0] * count
        for i in range(count):
            parent = flat[i * FIELDS + 3]
            if parent >= 0:
                child[parent] += flat[i * FIELDS + 2] - flat[i * FIELDS + 1]
        for i in range(count):
            name = names[flat[i * FIELDS]]
            dur = flat[i * FIELDS + 2] - flat[i * FIELDS + 1]
            self.calls[name] += 1
            self.incl_ns[name] += dur
            self.self_ns[name] += dur - child[i]
            parent = flat[i * FIELDS + 3]
            if parent >= 0:
                pname = names[flat[parent * FIELDS]]
                if pname.startswith("op:"):
                    self.top[(name, pname[3:])].append(dur)

    def module_totals(self):
        calls, self_ns = defaultdict(int), defaultdict(int)
        for name, c in self.calls.items():
            if name.startswith("op:"):
                continue
            mod = name.split(".", 1)[0]
            calls[mod] += c
            self_ns[mod] += self.self_ns[name]
        return calls, self_ns
