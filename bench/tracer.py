"""Span tracing of hyplyap from outside its source.

The tracer wraps every function listed in a module's ``__all__`` (for
``cli``, which has no ``__all__``, every public function it defines), plus
``MobiusMap.__call__``, ``Specialization.__call__`` and
``Representation.from_matrices`` (the constructor every run builds its
representation with), and rebinds each wrapper under every name a hyplyap
module holds for the original, so calls between modules and within a
module both pass through it.  ``uninstall`` puts every original back; no
source file is edited.

``hypgeo`` functions are counted, not spanned: they run millions of times
in the scalar trackers, and a span each would cost more than the call.
Spans live in memory as ``[name, start_ns, end_ns, parent]`` records until
the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

MODULES = ("hypgeo", "surface", "diffusion", "cocycle", "lyapunov", "cli")
# hypgeo runs inside every scalar loop: counts only
COUNT_ONLY = ("hypgeo",)


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, obj in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == mod.__name__]
    return [(n, getattr(mod, n)) for n in names if inspect.isfunction(getattr(mod, n))]


def path_steps(fn, args, kwargs) -> int:
    """Path-steps (or ray-steps) an ensemble call into ``lyapunov`` will
    take, read off its public arguments: paths times time steps for the
    Brownian estimators, directions times ray steps for the geodesic ones.
    Calls that take no representation drive the polar walker, whose steps
    belong to ``diffusion``."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    if "rep" not in a:
        return 0
    if "n_paths" in a:
        horizon = next(a[k] for k in ("t_max", "t", "n") if k in a)
        return int(a["n_paths"]) * math.ceil(float(horizon) / a["step"] - 1e-9)
    if "R" in a:
        return int(a.get("n_dirs", 1)) * math.ceil(float(a["R"]) / a["spacing"] - 1e-9)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._patches = []    # (owner, attribute, original value)

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, steps=False):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if steps and not (parent >= 0 and spans[parent][0].startswith("lyapunov.")):
                counts["lyapunov.path_steps"] += path_steps(fn, args, kwargs)
            rec = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -------------------------------------------------------- install/undo

    def install(self):
        mods = {short: importlib.import_module(f"hyplyap.{short}") for short in MODULES}
        holders = [importlib.import_module("hyplyap"), *mods.values()]
        wrapped = {}
        for short, mod in mods.items():
            for name, fn in _public_functions(mod):
                if fn in wrapped:
                    continue
                label = f"{short}.{name}"
                if short in COUNT_ONLY:
                    wrapped[fn] = self._count(label, fn)
                else:
                    wrapped[fn] = self._span(label, fn, steps=short == "lyapunov")
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(holder, attr, wrapped[value])

        hypgeo, cocycle = mods["hypgeo"], mods["cocycle"]
        self._set(hypgeo.MobiusMap, "__call__",
                  self._count("hypgeo.MobiusMap.__call__", hypgeo.MobiusMap.__call__))
        self._set(cocycle.Specialization, "__call__",
                  self._span("cocycle.Specialization.__call__",
                             cocycle.Specialization.__call__))
        from_matrices = vars(cocycle.Representation)["from_matrices"].__func__
        self._set(cocycle.Representation, "from_matrices",
                  staticmethod(self._span("cocycle.Representation.from_matrices",
                                          from_matrices)))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --------------------------------------------------------------- spans

    @contextlib.contextmanager
    def root(self, name):
        """Span the benchmark opens around one operation; every traced call
        inside it becomes a descendant."""
        rec = [f"bench.{name}", 0, 0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def self_seconds(self):
        """Self time per module: each span's duration minus the durations
        of its direct children, summed over the module's spans."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += (end - start - covered) * 1e-9
        return out

    def span_counts(self):
        return Counter(rec[0] for rec in self.spans)

    def dump(self, fh, tag):
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"pass": tag, "name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent}) + "\n")
