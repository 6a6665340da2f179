"""Outside-in tracer: spans around the public functions of each limclose
layer, recorded from the benchmark's own files without touching `src/`.

`Tracer.install()` wraps every public function defined in a layer module
and rebinds it wherever a limclose module holds it by name (for example
`idealops` holds its own binding of `groebner.buchberger`), including the
defining module's own globals, so calls made inside a layer are seen too.
`Ideal.groebner` is patched on the class.  `polycore` is not wrapped: its
functions are the inner loop of every normal form, and its metrics are
data-volume counts read from the bases `buchberger` returns.

A span is `[name, start, end, parent]`, kept in memory and written out by
`write()` when the run ends.  Self time is a span's duration minus the
durations of its child spans.  Input-property counters are computed after
the run from the arguments and results that crossed the layer boundary.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

LAYERS = ("polycore", "groebner", "idealops", "localring", "limitclosure",
          "structure", "detmaps", "frontend")
WRAPPED = LAYERS[1:]

# Functions reported as `<name>.calls` and `<name>.self_s`.
TIMED = (
    "groebner.buchberger", "groebner.normal_form", "groebner.reduce_basis",
    "idealops.Ideal.groebner", "idealops.ideal_intersect",
    "idealops.eliminate", "idealops.ideal_colon",
    "idealops.standard_monomials",
    "localring.local_member", "localring.local_length", "localring.local_dim",
    "localring.is_local_unit_ideal", "localring.truncated_quotient_dim",
    "limitclosure.colon_step", "limitclosure.limit_closure",
    "structure.unmixed_component", "structure.dimension_filtration",
    "structure.is_good_sop", "structure.submodule_dim",
    "structure.hilbert_samuel", "structure.multiplicity",
    "structure.ij_functions", "structure.topology_scan",
    "detmaps.express_in_terms", "detmaps.detmap_injective",
    "detmaps.determinant",
    "frontend.parse_session", "frontend.run_command", "frontend.render",
)

# Deterministic counts: identical across traced runs of one seed.
COUNTERS = {
    "groebner.buchberger.distinct_inputs": "count",
    "polycore.basis_terms": "count",
    "polycore.coeff_bits_max": "bits",
    "idealops.Ideal.groebner.hit_ratio": "ratio",
    "localring.is_local_unit_ideal.trivial_share": "ratio",
    "limitclosure.window_steps": "count",
}
TIMED_SHARES = {"groebner.buchberger.repeat_share": "ratio"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(TIMED_SHARES)
    units["trace.overhead_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.src_lines"] = "lines"
    return units


def src_lines(src_dir):
    """Non-blank, non-comment source lines of each layer module."""
    out = {}
    for layer in LAYERS:
        text = (Path(src_dir) / "limclose" / f"{layer}.py").read_text()
        out[f"{layer}.src_lines"] = sum(
            1 for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#"))
    return out


def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        # name -> [(span index, args, kwargs, result)] of observed functions
        self.observed = defaultdict(list)
        self.signatures = {}

    def wrap(self, name, fn, observe=False):
        spans, stack, observed = self.spans, self.stack, self.observed
        clock = time.perf_counter
        if observe:
            self.signatures[name] = inspect.signature(fn)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe:
                observed[name].append((idx, args, kwargs, result))
            return result

        return traced

    def install(self):
        # the functions whose arguments and results feed the counters
        observe = {"groebner.buchberger", "localring.is_local_unit_ideal",
                   "limitclosure.limit_closure"}
        modules = {layer: importlib.import_module(f"limclose.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer in WRAPPED:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, name in observe)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        ideal = modules["idealops"].Ideal
        ideal.groebner = self.wrap("idealops.Ideal.groebner", ideal.groebner)

    def _calls(self, name):
        """(span index, bound arguments, result) of each observed call."""
        sig = self.signatures[name]
        for idx, args, kwargs, result in self.observed[name]:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            yield idx, bound.arguments, result

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def summary(self):
        """Per-layer metrics of the traced pass (all but src_lines and the
        overhead, which run.py adds)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
                children[parent] += 1
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]

        gb_calls = [i for i, s in enumerate(spans)
                    if s[0] == "idealops.Ideal.groebner"]
        hits = sum(1 for i in gb_calls if children[i] == 0)
        out["idealops.Ideal.groebner.hit_ratio"] = \
            hits / len(gb_calls) if gb_calls else 0.0

        seen = set()
        repeat_time = total_time = 0.0
        terms = bits = 0
        for idx, a, gb in self._calls("groebner.buchberger"):
            key = (a["order"], a["track"],
                   frozenset(frozenset(g.primitive().terms.items())
                             for g in a["gens"] if not g.is_zero()))
            dur = spans[idx][2] - spans[idx][1]
            total_time += dur
            if key in seen:
                repeat_time += dur
            seen.add(key)
            for g in gb.generators:
                terms += len(g.terms)
                for c in g.terms.values():
                    bits = max(bits, _coeff_bits(c))
        out["groebner.buchberger.distinct_inputs"] = len(seen)
        out["groebner.buchberger.repeat_share"] = \
            repeat_time / total_time if total_time else 0.0
        out["polycore.basis_terms"] = terms
        out["polycore.coeff_bits_max"] = bits

        unit_calls = list(self._calls("localring.is_local_unit_ideal"))
        trivial = sum(
            1 for _, a, _ in unit_calls
            if all(not g.constant_term
                   for g in list(a["I"].gens) + list(a["ctx"].defining.gens)))
        out["localring.is_local_unit_ideal.trivial_share"] = \
            trivial / len(unit_calls) if unit_calls else 0.0

        out["limitclosure.window_steps"] = sum(
            len(res.chain) - res.stabilization_index
            for _, _, res in self._calls("limitclosure.limit_closure"))
        return out
