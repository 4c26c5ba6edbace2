"""Spans recorded from outside the library, by wrapping its public functions.

The library modules import one another by name (``from .oracle import
box_index``), so a function is replaced in every ``lattice_higgs`` module
whose global still points at the original, not only in its defining
module.  Methods are patched on their class.  Everything is restored when
the ``instrument`` context exits.

A span is (name, start, end, parent, run id).  Spans stay in memory and are
written out by the caller when the run ends.  Self time is a span's
duration minus the time its child spans cover; calls are single-threaded
and properly nested, so children never overlap and their durations add.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.run_id = "setup-0"
        # [name, start, end, parent index, run id, time covered by children]
        self.spans = []
        # (run id, counter name) -> total
        self.counts = defaultdict(int)
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.run_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][5] += rec[2] - rec[1]

    def count(self, name, value):
        self.counts[(self.run_id, name)] += value

    def dump(self, path):
        rows = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "run": s[4]}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}))

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        """{run id: {span name: summed self seconds}}."""
        out = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, run, child in self.spans:
            out[run][name] += end - start - child
        return out


def _states(kind):
    """Counter of configurations one oracle call enumerates."""

    def count(box_index, args, kwargs):
        params = args[1] if len(args) > 1 else kwargs["params"]
        idx = box_index(params.m, params.N)
        cells = {
            "unitary": len(idx.edges),
            "full": len(idx.edges) + len(idx.vertices),
            "form": len(idx.plaqs),
        }[kind]
        return params.n**cells

    return count


def _appendix_name(args, kwargs):
    k = kwargs.get("K", args[2] if len(args) > 2 else 60)
    return f"bounds.appendix_sums_k{k}"


# (module, function, span name or a function of the call arguments giving it, counter name, counter)
FUNCTIONS = [
    ("oracle", "box_index", "oracle.box_index", None, None),
    ("oracle", "expect_unitary", "oracle.expect_unitary", "oracle.expect_unitary_states", _states("unitary")),
    ("oracle", "expect_full", "oracle.expect_full", "oracle.expect_full_states", _states("full")),
    ("oracle", "expect_form", "oracle.expect_form", "oracle.expect_form_states", _states("form")),
    ("sampler", "estimate_wilson", "sampler.estimate_wilson", None, None),
    ("bounds", "appendix_sums", _appendix_name, None, None),
    ("bounds", "constants", "bounds.constants", None, None),
    ("couplings", "assumption_check", "couplings.assumption_check", None, None),
    ("paths", "gamma_stats", "paths.gamma_stats", None, None),
    ("forms", "delta", "forms.delta", None, None),
]

# (module, class, method, span name)
METHODS = [
    ("cells", "LatticeBox", "cells", "cells.box_cells"),
    ("sampler", "ChainEnsemble", "__init__", "sampler.init"),
    ("sampler", "ChainEnsemble", "sweep", "sampler.sweep"),
    ("sampler", "ChainEnsemble", "normalized_wilson", "sampler.normalized_wilson"),
    ("sampler", "ChainEnsemble", "snapshot", "sampler.snapshot"),
]


def _function_wrapper(tracer, fn, name, counter, count, box_index):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if counter is not None:
            tracer.count(counter, count(box_index, args, kwargs))
        span = name(args, kwargs) if callable(name) else name
        return tracer.call(span, fn, args, kwargs)

    return traced


def _method_wrapper(tracer, fn, name):
    if name == "cells.box_cells":
        # LatticeBox.cells is a generator: materialize it inside the span so the
        # span covers the enumeration, then hand the caller an iterator.
        @functools.wraps(fn)
        def traced_cells(*args, **kwargs):
            return iter(tracer.call(name, lambda: list(fn(*args, **kwargs)), (), {}))

        return traced_cells
    if name == "sampler.sweep":

        @functools.wraps(fn)
        def traced_sweep(self, *args, **kwargs):
            tracer.count("sampler.updates", self.omega.size)
            return tracer.call(name, fn, (self,) + args, kwargs)

        return traced_sweep

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Patch the library's public functions and methods to record spans."""
    from lattice_higgs import oracle

    box_index = oracle.box_index
    modules = [m for k, m in list(sys.modules.items()) if k == "lattice_higgs" or k.startswith("lattice_higgs.")]
    undo = []
    try:
        for mod_name, fn_name, name, counter, count in FUNCTIONS:
            orig = getattr(sys.modules[f"lattice_higgs.{mod_name}"], fn_name)
            wrapped = _function_wrapper(tracer, orig, name, counter, count, box_index)
            for mod in modules:
                if mod.__dict__.get(fn_name) is orig:
                    undo.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapped)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"lattice_higgs.{mod_name}"], cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _method_wrapper(tracer, orig, name))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
