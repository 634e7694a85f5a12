"""Span tracing of fuskit's public functions, installed from outside the package.

The tracer replaces each traced function by a wrapper in *every* fuskit module
that binds it, because the modules import each other's functions by name
(``from .fusion import is_saturated``); patching only the defining module would
miss those calls.  Each call records a span (name, start, end, parent span) in
flat arrays kept in memory; self time is computed after the run as a span's
duration minus the time covered by its traced child spans.

``Group.mul`` is called millions of times per workload, so it is counted only,
without a span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array

# layer (fuskit module) -> traced public functions
LAYER_FUNCTIONS = {
    "permgroup": ("subgroups_of", "normal_subgroups", "automorphisms", "isomorphisms_between",
                  "hom_build", "quotient_group", "characteristic_subgroups"),
    "fusion": ("fusion_from_group", "generated_on", "is_saturated", "n_phi",
               "is_fully_normalized", "is_strongly_closed"),
    "closure": ("o_p", "is_normal_subgroup", "alperin_decompose"),
    "subsystems": ("k_normalizer_system", "is_invariant"),
    "quotients": ("factor_parts", "bar_system", "verify_second_iso"),
    "solubility": ("o_p_tower", "is_qdp_free_group"),
    "serialization": ("fusion_spec_from_dict", "system_from_dict"),
}

# functions whose number of distinct positional arguments is reported; these
# are the ones the package memoizes, so calls minus distinct is the reuse
DISTINCT = ("permgroup.subgroups_of", "permgroup.automorphisms",
            "fusion.is_saturated", "fusion.is_strongly_closed")

MUL_CALLS = "permgroup.Group.mul.calls"
ISOS_OUT = "fusion.generated_on.isos_out"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric the tracer reports, in report order."""
    out = []
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count"))
            out.append((f"{layer}.{fn}.self_s", "s"))
    out.append((MUL_CALLS, "count"))
    out.append((ISOS_OUT, "count"))
    out.extend((f"{name}.distinct", "count") for name in DISTINCT)
    return out


def fuskit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fuskit" or name.startswith("fuskit."))]


class Tracer:
    """Wraps the functions in LAYER_FUNCTIONS while installed.

    Use as a context manager around the traced work; the wrappers are removed
    again on exit, so later code runs untraced.
    """

    def __init__(self, layers=None):
        self.layers = {k: v for k, v in LAYER_FUNCTIONS.items() if layers is None or k in layers}
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._distinct: dict[str, set] = {}
        self._pins: list = []           # keeps keyed objects alive, so ids stay unique
        self.isos_out = 0
        self._mul_calls = itertools.count()
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = fuskit_modules()
        for layer, fns in self.layers.items():
            home = sys.modules[f"fuskit.{layer}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))
        if "permgroup" in self.layers:
            group = sys.modules["fuskit.permgroup"].Group
            orig_mul = group.mul
            tick = self._mul_calls

            def mul(g, a, b):
                next(tick)
                return orig_mul(g, a, b)

            group.mul = mul
            self._undo.append((group, "mul", orig_mul))
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        seen = self._distinct.setdefault(name, set()) if name in DISTINCT else None
        pins = self._pins
        count_isos = name == "fusion.generated_on"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                key = tuple(_arg_key(a) for a in args)
                if key not in seen:
                    seen.add(key)
                    pins.append(args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count_isos:
                self.isos_out += sum(len(h) for h in out.table.values())
            return out

        return traced

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time per traced function, plus the counters."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - covered[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        if "permgroup" in self.layers:
            out[MUL_CALLS] = next(self._mul_calls)
        out[ISOS_OUT] = self.isos_out
        for name, seen in self._distinct.items():
            out[f"{name}.distinct"] = len(seen)
        return out


def _arg_key(a):
    """Identity key of an argument, as the package's memo tables see it:
    a subgroup is its parent group object plus its element mask."""
    if hasattr(a, "mask") and hasattr(a, "parent"):
        return (id(a.parent), a.mask)
    return id(a)
