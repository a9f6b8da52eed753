"""In-memory span tracing of hopfgal's layer entry points, from outside the
package.

`Tracer.install` wraps each entry point in `ENTRY_POINTS` by rebinding every
module or class attribute of the loaded `hopfgal.*` modules that holds the
original function object, so `from .fdalg import simples`-style call sites are
traced too.  `Tracer.remove` puts the originals back.  A span is one call:
its entry point, its parent span, the benchmark job it ran in, start and end
times, and a few attributes computed from the argument shapes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# layer -> traced entry points; "Cls.meth" is a method, a class name alone is
# its constructor
ENTRY_POINTS = {
    "exactfield": ("Poly.factor", "splitting_extension"),
    "_arrays": ("fmul", "fmatmul", "_imatmul", "rref", "nullspace"),
    "fdalg": ("center", "radical", "central_idempotents", "simples",
              "block_decompose", "extend_scalars", "form_rank"),
    "hopf": ("left_integral_dual", "convolution"),
    "resliealg": ("Fiber", "u_restricted", "pbw_splitting",
                  "Prop30Context.sigma_value", "Prop30Context.multiply"),
    "galois": ("coinvariants", "frobenius_form", "splitting_to_cocycle",
               "twisted_product", "cocycle_verify", "galois_check"),
    "speclab": ("fiber_report", "scan", "sl2_eq4_check"),
    "cli": ("main",),
}
LAYERS = tuple(ENTRY_POINTS)
BENCH = "bench"   # layer of the benchmark's own job spans


def _alg_attrs(args):
    """dim and field order of an SCAlgebra first argument."""
    A = args[0]
    return {"dim": A.dim, "q": A.field.order}


def _form_attrs(args):
    s = args[0]
    return {"dim": s.matrix.shape[0], "q": s.field.order}


def _fiber_attrs(args):
    # Fiber.__init__(self, L, point)
    L, point = args[1], args[2]
    return {"dim": L.p ** L.dim, "q": point.field.order}


def _fmatmul_attrs(args):
    """Computed, not measured: multiply-accumulates of the k^2 prime-field
    products, and int64 bytes of both operands and the result."""
    field, A, B = args[0], args[1], args[2]
    m, r, n, k = A.shape[0], A.shape[1], B.shape[1], field.k
    return {"mac": m * r * n * k * k,
            "bytes": 8 * (A.size + B.size + m * n * k), "q": field.order}


def _rref_attrs(args):
    M = args[1]
    return {"cells": M.shape[0] * M.shape[1], "q": args[0].order}


ATTR_KEYS = ("dim", "q", "mac", "bytes", "cells")
COUNTS = ("_arrays.fmatmul.mac", "_arrays.fmatmul.bytes", "_arrays.rref.cells")
ATTRS = {
    "fdalg.center": _alg_attrs, "fdalg.radical": _alg_attrs,
    "fdalg.central_idempotents": _alg_attrs, "fdalg.simples": _alg_attrs,
    "fdalg.block_decompose": _alg_attrs, "fdalg.extend_scalars": _alg_attrs,
    "fdalg.form_rank": _form_attrs,
    "resliealg.Fiber": _fiber_attrs,
    "_arrays.fmatmul": _fmatmul_attrs,
    "_arrays.rref": _rref_attrs,
}


def _resolve(layer: str, path: str):
    """(owner, attribute name) of an entry point in its defining module."""
    owner = importlib.import_module("hopfgal." + layer)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(getattr(owner, name), type):
        owner, name = getattr(owner, name), "__init__"
    return owner, name


def _holders(orig):
    """Every (owner, name) among the loaded hopfgal modules and the classes
    they define whose attribute is the object `orig`."""
    seen = set()
    for modname in sorted(sys.modules):
        if modname != "hopfgal" and not modname.startswith("hopfgal."):
            continue
        for name, val in list(vars(sys.modules[modname]).items()):
            if val is orig:
                key = (id(sys.modules[modname]), name)
                if key not in seen:
                    seen.add(key)
                    yield sys.modules[modname], name
            if isinstance(val, type) and val.__module__.startswith("hopfgal"):
                for cname, cval in list(vars(val).items()):
                    key = (id(val), cname)
                    if cval is orig and key not in seen:
                        seen.add(key)
                        yield val, cname


class Tracer:
    """Spans are tuples (fn_id, parent_span, job, t0, t1, attrs); fn_id
    indexes `self.names`.  Job spans (layer `bench`) are the roots."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.job = None
        self._stack = [-1]
        self._bound: list = []   # (owner, name, original)

    def _fn_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, qualname: str):
        fid = self._fn_id(qualname)
        attrs_of = ATTRS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args) if attrs_of is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (fid, parent, self.job, t0, t1, attrs)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        for layer, paths in ENTRY_POINTS.items():
            for path in paths:
                owner, name = _resolve(layer, path)
                orig = vars(owner)[name]
                wrapper = self._wrap(orig, f"{layer}.{path}")
                for holder, attr in list(_holders(orig)):
                    setattr(holder, attr, wrapper)
                    self._bound.append((holder, attr, orig))

    def remove(self):
        for holder, attr, orig in reversed(self._bound):
            setattr(holder, attr, orig)
        self._bound = []

    def job_span(self, job: str, kind: str):
        """Context manager for one benchmark job: the root span of every
        call the job makes."""
        return _JobSpan(self, job, self._fn_id(f"{BENCH}.{kind}"))

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        dur = [s[4] - s[3] for s in self.spans]
        child = [0.0] * len(dur)
        for s, d in zip(self.spans, dur):
            if s[1] >= 0:
                child[s[1]] += d
        return [d - c for d, c in zip(dur, child)]

    def summary(self):
        """Per job: its wall time, span count, per-function calls and self
        time, computed kernel counts, and the share of its wall time that
        the traced layers account for; and the same calls, self times and
        counts over the whole run, with the self time per layer."""
        jobs = {}
        for s, st in zip(self.spans, self.self_times()):
            name = self.names[s[0]]
            rec = jobs.get(s[2])
            if rec is None:
                rec = jobs[s[2]] = {
                    "wall_s": 0.0, "layer_self_s": 0.0, "spans": 0,
                    "fn_calls": {}, "fn_self_s": {},
                    # computed from argument shapes, not measured
                    "counts": dict.fromkeys(COUNTS, 0)}
            rec["spans"] += 1
            if name.split(".")[0] == BENCH:
                rec["wall_s"] += s[4] - s[3]
                continue
            rec["layer_self_s"] += st
            rec["fn_calls"][name] = rec["fn_calls"].get(name, 0) + 1
            rec["fn_self_s"][name] = rec["fn_self_s"].get(name, 0.0) + st
            attrs = s[5]
            if attrs is not None:
                if "mac" in attrs:
                    rec["counts"]["_arrays.fmatmul.mac"] += attrs["mac"]
                    rec["counts"]["_arrays.fmatmul.bytes"] += attrs["bytes"]
                elif "cells" in attrs:
                    rec["counts"]["_arrays.rref.cells"] += attrs["cells"]
        total = {"fn_calls": {}, "fn_self_s": {},
                 "computed_counts": dict.fromkeys(COUNTS, 0)}
        for rec in jobs.values():
            for key in ("fn_calls", "fn_self_s"):
                for name, v in rec[key].items():
                    total[key][name] = total[key].get(name, 0) + v
            for name, v in rec["counts"].items():
                total["computed_counts"][name] += v
        total["layer_self_s"] = {
            layer: sum(t for name, t in total["fn_self_s"].items()
                       if name.split(".")[0] == layer) for layer in LAYERS}
        jobs.pop(None, None)   # calls made outside any job
        for rec in jobs.values():
            rec["cover"] = rec["layer_self_s"] / rec["wall_s"]
        total["jobs"] = jobs
        return total

    def write(self, path: str):
        """All spans as columns of a compressed .npz: entry point (index into
        `names`), parent span (-1 for a job), job (index into `jobs`), start
        and end times, and the attributes (0 where a span has none)."""
        import numpy as np
        jobs = sorted({s[2] for s in self.spans if s[2] is not None})
        job_ix = {j: i for i, j in enumerate(jobs)}
        cols = {k: [] for k in ("fn", "parent", "job", "t0", "t1")}
        attrs = {k: [0] * len(self.spans) for k in ATTR_KEYS}
        for sid, s in enumerate(self.spans):
            cols["fn"].append(s[0])
            cols["parent"].append(s[1])
            cols["job"].append(job_ix.get(s[2], -1))
            cols["t0"].append(s[3])
            cols["t1"].append(s[4])
            if s[5] is not None:
                for k, v in s[5].items():
                    attrs[k][sid] = v
        np.savez_compressed(
            path, names=np.array(self.names), jobs=np.array(jobs),
            fn=np.array(cols["fn"], dtype=np.int32),
            parent=np.array(cols["parent"], dtype=np.int64),
            job=np.array(cols["job"], dtype=np.int32),
            t0=np.array(cols["t0"]), t1=np.array(cols["t1"]),
            **{k: np.array(v, dtype=np.int64) for k, v in attrs.items()})


class _JobSpan:
    def __init__(self, tracer: Tracer, job: str, fid: int):
        self.tr, self.job, self.fid = tracer, job, fid

    def __enter__(self):
        tr = self.tr
        tr.job = self.job
        self.sid = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.sid)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tr
        tr._stack.pop()
        tr.spans[self.sid] = (self.fid, -1, self.job, self.t0, t1, None)
        tr.job = None
        return False
