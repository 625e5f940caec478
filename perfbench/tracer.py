"""Run one ``crkit`` command with spans and counts around each layer.

    python3 perfbench/tracer.py OUT.json OP_ID -- ARGS...

Imports ``crkit``, wraps the public functions of every layer module (in each
``crkit`` module that bound the name, since ``from .linalg import rref``
copies the binding) plus a few methods, then calls ``crkit.cli.main(ARGS)``.
The command's stdout is left untouched.  Spans are kept in memory and
written to OUT.json when the command returns, with the seconds spent
wrapping (``wrap_s``) and serializing (``dump_s``): the tracer's own cost.
Importing ``crkit`` is not in either, since every ``crkit`` command pays it.  Each
span is ``[name, start, end, parent, op_id, tool_s]``: ``parent`` indexes
the span list (-1 for none) and ``tool_s`` is time this module spent inside
the span on its own bookkeeping (scanning ``rref`` operands), to be
subtracted from the span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "fileio", "catalog", "complexify", "cr", "algebra",
          "globalize", "linalg", "scalars")

# Methods that get spans, as (module, class, method).
SPAN_METHODS = (
    ("complexify", "OrbitModel", "__init__"),
    ("linalg", "Solver", "__init__"),
    ("linalg", "Solver", "solve"),
)
# Methods that are only counted: called per vector or per scalar, where a
# span would cost more than the call.
COUNT_METHODS = (
    ("algebra", "LieAlgebra", "bracket"),
    ("catalog", "CatalogEntry", "__init__"),
)
GAUSSIAN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "conjugate")
# Per-vector helpers in linalg: counted, not spanned.
COUNT_ONLY = {"linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
              "linalg.zero_vec", "linalg.is_zero_vec", "linalg.matvec"}

perf = time.perf_counter


class Trace:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        self.counts = {}
        self.rref_cells = 0
        self.rref_nonzero = 0
        self.max_bits = 0

    def span_wrapper(self, fn, name, probe=None):
        spans, stack = self.spans, self.stack
        op_id = self.op_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            tool = 0.0
            try:
                if probe is not None:
                    args = probe.before(args)
                    tool = perf() - t0
                result = fn(*args, **kwargs)
                if probe is not None:
                    t2 = perf()
                    probe.after(result)
                    tool += perf() - t2
                return result
            finally:
                stack.pop()
                spans[idx] = [name, t0, perf(), parent, op_id, tool]

        return wrapper

    def count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


class RrefProbe:
    """Input cells and nonzeros, and output coefficient bits, of rref."""

    def __init__(self, trace):
        self.trace = trace

    def before(self, args):
        rows = [tuple(r) for r in args[0]]
        t = self.trace
        for r in rows:
            t.rref_cells += len(r)
            t.rref_nonzero += sum(1 for x in r if x)
        return (rows,) + args[1:]

    def after(self, result):
        t = self.trace
        best = t.max_bits
        for row in result[0]:
            for x in row:
                for part in ((x,) if isinstance(x, (Fraction, int)) else (x.re, x.im)):
                    part = Fraction(part)
                    best = max(best, abs(part.numerator).bit_length(),
                               part.denominator.bit_length())
        t.max_bits = best


def install(trace, mods):
    everything = [importlib.import_module("crkit")] + list(mods.values())
    probes = {"linalg.rref": RrefProbe(trace)}

    for layer, mod in mods.items():
        if layer == "scalars":
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                wrapped = trace.count_wrapper(obj, name)
            else:
                wrapped = trace.span_wrapper(obj, name, probes.get(name))
            for other in everything:
                for oattr, oval in list(vars(other).items()):
                    if oval is obj:
                        setattr(other, oattr, wrapped)

    for layer, cls_name, meth in SPAN_METHODS:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, trace.span_wrapper(cls.__dict__[meth], f"{layer}.{cls_name}.{meth}"))
    for layer, cls_name, meth in COUNT_METHODS:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, trace.count_wrapper(cls.__dict__[meth], f"{layer}.{cls_name}.{meth}"))
    gauss = mods["scalars"].GaussianRational
    for meth in GAUSSIAN_OPS:
        setattr(gauss, meth, trace.count_wrapper(gauss.__dict__[meth], "scalars.gaussian_ops"))
    return mods["cli"].main


def main(argv):
    out_path, op_id = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py OUT.json OP_ID -- ARGS...")
    args = argv[3:]
    trace = Trace(op_id)
    mods = {name: importlib.import_module(f"crkit.{name}") for name in LAYERS}
    t0 = perf()
    cli_main = install(trace, mods)
    wrap_s = perf() - t0
    try:
        code = cli_main(args)
    finally:
        sys.stdout.flush()
        t_end = perf()
        body = json.dumps({
            "op": op_id,
            "wrap_s": wrap_s,
            "spans": trace.spans,
            "counts": trace.counts,
            "rref_cells": trace.rref_cells,
            "rref_nonzero": trace.rref_nonzero,
            "max_bits": trace.max_bits,
        })
        # serializing thousands of spans is tracer cost, not process start-up
        dump_s = perf() - t_end
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write('{"dump_s": %r, "trace": %s}' % (dump_s, body))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
