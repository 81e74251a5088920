"""Spans around bfvkit's public functions, recorded from outside the package.

``Tracer.install`` wraps each target in ``TARGETS`` and rebinds every name
that refers to it: module globals (``from .x import y`` copies included)
and class attributes (``__radd__`` is ``__add__``).  Each call records a
span: name, start, end, parent span, op index and up to two integer
counters.  Spans live in compact arrays and are written out with
``dump``; ``summarize`` derives calls, self time (span duration minus the
time covered by its child spans) and the counters from a dump.

No layer of bfvkit has queues or threads, so no span waits: there is no
wait-time metric, and none is reported.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from statistics import median

# (span name, layer, module, qualified name, counter)
TARGETS = [
    ("linalg.add_column", "linalg", "bfvkit.linalg", "EchelonSolver.add_column", "true"),
    ("linalg.solve", "linalg", "bfvkit.linalg", "EchelonSolver.solve", "not_none"),
    ("linalg.residual", "linalg", "bfvkit.linalg", "EchelonSolver.residual", "empty"),
    ("linalg.solve_columns", "linalg", "bfvkit.linalg", "solve_columns", "columns"),
    ("linalg.block_echelon.build", "linalg", "bfvkit.linalg", "BlockEchelon.__init__",
     "blocks"),
    ("gpoly.bracket", "gpoly", "bfvkit.gpoly", "bracket", None),
    ("gpoly.mul", "gpoly", "bfvkit.gpoly", "GPoly.__mul__", None),
    ("gpoly.add", "gpoly", "bfvkit.gpoly", "GPoly.__add__", None),
    ("gpoly.deriv", "gpoly", "bfvkit.gpoly", "GPoly.deriv", None),
    ("basis.enumerate_monomials", "basis", "bfvkit.basis", "enumerate_monomials", "len"),
    ("homotopy.lagrangian_monomials", "basis", "bfvkit.homotopy",
     "lagrangian_monomials", "len"),
    ("engine.delta_v", "engine", "bfvkit.engine", "delta_v", None),
    ("engine.koszul_solve", "engine", "bfvkit.engine", "koszul_solve", None),
    ("engine.solve_brst_exact", "engine", "bfvkit.engine", "solve_brst_exact", None),
    ("engine.cocycle_lift", "engine", "bfvkit.engine", "cocycle_lift", None),
    ("engine.extend_charge", "engine", "bfvkit.engine", "extend_charge", None),
    # one span name per arity: homotopy.ell1, homotopy.ell2, homotopy.ell3
    ("homotopy.ell", "homotopy", "bfvkit.homotopy", "BracketTower.ell", "arity"),
    ("homotopy.h0_probe", "homotopy", "bfvkit.homotopy", "h0_probe", None),
    ("scenario.ideal_membership", "scenario", "bfvkit.scenario", "ideal_membership",
     "not_none"),
    ("scenario.check_compatibility", "scenario", "bfvkit.scenario",
     "check_compatibility", None),
    ("scenario.check_equivariance", "scenario", "bfvkit.scenario",
     "check_equivariance", None),
    ("scenario.assemble_constraints", "scenario", "bfvkit.scenario",
     "assemble_constraints", None),
    ("scenario.group_log_constraints", "scenario", "bfvkit.scenario",
     "group_log_constraints", None),
    ("scenario.bch_transport_check", "scenario", "bfvkit.scenario",
     "bch_transport_check", None),
    ("scenario.mat_mul", "scenario", "bfvkit.scenario", "mat_mul", None),
    ("liedata.validate", "liedata", "bfvkit.liedata", "validate_lie", None),
    ("liedata.validate", "liedata", "bfvkit.liedata", "validate_module", None),
    ("liedata.validate", "liedata", "bfvkit.liedata", "validate_dgla", None),
    ("liedata.validate", "liedata", "bfvkit.liedata", "validate_bialgebra", None),
    ("liedata.validate", "liedata", "bfvkit.liedata", "validate_quasi", None),
    ("config.parse_scenario", "config", "bfvkit.config", "parse_scenario", None),
    ("grammar.parse", "grammar", "bfvkit.grammar", "parse", None),
    ("grammar.serialize", "grammar", "bfvkit.grammar", "serialize", None),
    ("cli.run", "cli", "bfvkit.cli", "run", None),
]

ELL_ARITIES = (1, 2, 3)
LAYERS = ("linalg", "gpoly", "basis", "engine", "homotopy", "scenario",
          "liedata", "config", "grammar", "cli")

# (span name, counter, metric suffix, unit); a "ratio" is the counter's
# total over the span's calls.
COUNTER_METRICS = [
    ("linalg.add_column", "c1", "pivot_ratio", "ratio"),
    ("linalg.solve", "c1", "found_ratio", "ratio"),
    ("linalg.residual", "c1", "found_ratio", "ratio"),
    ("linalg.solve_columns", "c1", "columns", "count"),
    ("linalg.block_echelon.build", "c1", "columns", "count"),
    ("linalg.block_echelon.build", "c2", "blocks", "count"),
    ("basis.enumerate_monomials", "c1", "monomials", "count"),
    ("homotopy.lagrangian_monomials", "c1", "monomials", "count"),
    ("scenario.ideal_membership", "c1", "found_ratio", "ratio"),
]


def span_layers() -> dict:
    """Span name -> layer, in metric order."""
    out = {}
    for name, layer, _mod, _qual, counter in TARGETS:
        for n in ([f"{name}{k}" for k in ELL_ARITIES] if counter == "arity"
                  else [name]):
            out.setdefault(n, layer)
    return out


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics, name -> (value, unit), as medians over the traced
    passes.  Each pass result carries ``wall_s``; traced ones also carry
    ``spans``, a ``summarize`` result.  Each traced pass is paired with the
    untraced pass run just before it for the tracing overhead."""
    spans = [p["spans"] for p in traced]
    layers = span_layers()
    values = {}
    for name in layers:
        values[f"{name}.calls"] = median(s[name]["calls"] for s in spans)
        values[f"{name}.self_s"] = median(s[name]["self_s"] for s in spans)
    for name, counter, suffix, unit in COUNTER_METRICS:
        values[f"{name}.{suffix}"] = median(
            s[name][counter] / max(s[name]["calls"], 1) if unit == "ratio"
            else s[name][counter] for s in spans)
    for layer in LAYERS:
        values[f"share.{layer}"] = median(
            sum(agg["self_s"] for n, agg in p["spans"].items() if layers[n] == layer)
            / p["wall_s"] for p in traced)
    values["trace_overhead_s"] = median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    units = metric_units()
    return {k: (v, units[k]) for k, v in values.items()}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    out = {}
    for name in span_layers():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for name, _counter, suffix, unit in COUNTER_METRICS:
        out[f"{name}.{suffix}"] = unit
    for layer in LAYERS:
        out[f"share.{layer}"] = "ratio"
    out["trace_overhead_s"] = "s"
    return out


# counter kind -> (args, result) -> (c1, c2)
_COUNTERS = {
    None: lambda args, res: (0, 0),
    "true": lambda args, res: (1 if res else 0, 0),
    "not_none": lambda args, res: (0 if res is None else 1, 0),
    "empty": lambda args, res: (0 if res else 1, 0),
    "columns": lambda args, res: (len(args[0]), 0),
    "blocks": lambda args, res: (len(args[1]), len(args[0].blocks)),
    "len": lambda args, res: (len(res), 0),
}


class Tracer:
    """Records one span per call of each target; install once per process."""

    def __init__(self):
        self.names = list(span_layers())
        self.op = 0
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.c1 = array("q")
        self.c2 = array("q")
        self._stack = [-1]
        self.absent = []

    def _wrap(self, name, fn, counter):
        ids = {k: self.names.index(f"{name}{k}") for k in ELL_ARITIES} \
            if counter == "arity" else None
        nid = None if ids else self.names.index(name)
        count = _COUNTERS[None if counter == "arity" else counter]
        clock = time.perf_counter
        stack = self._stack
        name_id, op_id, parent = self.name_id, self.op_id, self.parent
        start, end, c1, c2 = self.start, self.end, self.c1, self.c2

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(ids[args[1]] if ids else nid)
            op_id.append(self.op)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            c1.append(0)
            c2.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            try:
                c1[idx], c2[idx] = count(args, result)
            except (TypeError, IndexError, AttributeError):
                pass  # the target's signature changed; its counters stay 0
            return result

        return span

    def install(self):
        import bfvkit.cli  # noqa: F401  (imports every bfvkit module)

        modules = [m for key, m in sys.modules.items()
                   if key == "bfvkit" or key.startswith("bfvkit.")]
        for name, _layer, mod, qual, counter in TARGETS:
            # a target that bfvkit no longer has is skipped and reports 0 calls
            owner = sys.modules.get(mod)
            for part in qual.split(".")[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, qual.split(".")[-1], None)
            if original is None:
                self.absent.append(f"{mod}.{qual}")
                continue
            wrapper = self._wrap(name, original, counter)
            for space in modules + [owner]:
                for attr, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, attr, wrapper)

    def dump(self, path: str):
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": len(self.start)}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_id, self.op_id, self.parent, self.start,
                        self.end, self.c1, self.c2):
                arr.tofile(fh)


def load(path: str):
    with open(path + ".json", encoding="utf-8") as fh:
        head = json.load(fh)
    n = head["count"]
    arrays = [array(t) for t in "iiiddqq"]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return head["names"], arrays


def summarize(path: str) -> dict:
    """Span name -> {"calls", "self_s", "c1", "c2"} from a dump."""
    names, (name_id, _op, parent, start, end, c1, c2) = load(path)
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {n: {"calls": 0, "self_s": 0.0, "c1": 0, "c2": 0} for n in names}
    for i, nid in enumerate(name_id):
        agg = out[names[nid]]
        agg["calls"] += 1
        agg["self_s"] += end[i] - start[i] - child[i]
        agg["c1"] += c1[i]
        agg["c2"] += c2[i]
    return out


def remove(path: str):
    for suffix in (".json", ".bin"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
