"""Span tracing around the calls into jbalance's modules, installed from the
benchmark's side only.

``Tracer.install`` wraps methods on their classes and rebinds module-level
functions in every jbalance module that holds them by name (``cli`` imports
``balancing_flow`` and friends by name, ``flows`` calls ``jflow_step``
through its own globals, and ``i_mu0`` is imported inside functions at call
time, which reads the rebound module attribute).  Spans are kept in memory
as ``[name, start, end, parent]`` lists and written out by the caller.
"""

import functools
import importlib
import sys
import time

# (module, attribute, span name).  Several functions may share one span name.
FUNCTIONS = (
    ("jbalance.cli", "main", "cli.main"),
    ("jbalance.cli", "build_problem", "cli.build_problem"),
    ("jbalance.cli", "write_csv", "cli.write"),
    ("jbalance.cli", "_write_grid_csv", "cli.write"),
    ("jbalance.geometry", "build_quadrature", "geometry.build_quadrature"),
    ("jbalance.geometry", "calibrate", "geometry.calibrate"),
    ("jbalance.geometry", "intersection_numbers", "geometry.intersection"),
    ("jbalance.presets", "normal_cone_from_facet", "geometry.intersection"),
    ("jbalance.functionals", "i_mu0", "functionals.i_mu0"),
    ("jbalance.flows", "balancing_flow", "flows.balancing_flow"),
    ("jbalance.flows", "jflow_run", "flows.jflow_run"),
    ("jbalance.flows", "jflow_step", "flows.jflow_step"),
    ("jbalance.flows", "quantization_comparison", "flows.quantization_comparison"),
    ("jbalance.stability", "blowup_table", "stability.blowup_table"),
    ("jbalance.stability", "j_weight", "stability.j_weight"),
    ("jbalance.stability", "df_weight", "stability.df_weight"),
    ("jbalance.stability", "inequality_checks", "stability.inequality_checks"),
    ("jbalance.stability", "cone_criteria", "stability.cone_criteria"),
)

# (module, class, attribute, span name)
METHODS = (
    ("jbalance.geometry", "LogSumExpPotential", "hessian", "geometry.lse_hessian"),
    ("jbalance.geometry", "LogSumExpPotential", "value", "geometry.lse_value"),
    ("jbalance.stability", "SurfaceClassData", "from_polytope", "geometry.intersection"),
    # the CLI's JSON artifacts go through Path.write_text
    ("pathlib", "Path", "write_text", "cli.write"),
)

# Every public Quantisation method, plus construction of the context.
_QUANTISATION_NAMES = {"__init__": "quantisation.context",
                       "trace_identity_residual": "quantisation.trace_identity"}


def _quantisation_methods():
    from jbalance.quantisation import Quantisation
    for attr, val in vars(Quantisation).items():
        if callable(val) and (attr == "__init__" or not attr.startswith("_")):
            yield ("jbalance.quantisation", "Quantisation", attr,
                   _QUANTISATION_NAMES.get(attr, f"quantisation.{attr}"))


class Tracer:
    """Records one span per wrapped call; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.pde_dts = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(out)
            return out
        return traced

    def install(self):
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            hook = self._note_dts if name == "flows.jflow_run" else None
            wrapped = self.wrap(name, orig, hook)
            for mod_key, mod in list(sys.modules.items()):
                if (mod_key == "jbalance" or mod_key.startswith("jbalance.")) \
                        and getattr(mod, attr, None) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for mod_name, cls_name, attr, name in METHODS + tuple(_quantisation_methods()):
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _note_dts(self, result):
        self.pde_dts.extend(result.dts)


def self_times(spans):
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_table(spans):
    """{name: {"calls", "s", "self_s"}}.  ``s`` is inclusive time counted once
    per outermost span of the name, so a name nested in itself is not
    double counted."""
    table = {}
    for idx, ((name, start, end, _), own) in enumerate(zip(spans, self_times(spans))):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        if not _has_ancestor(spans, idx, name):
            row["s"] += end - start
    return table


def edge_table(spans):
    """{"caller > callee": {"calls", "s"}} over direct parent-child pairs, so
    the same function reached from two callers shows as two rows."""
    table = {}
    for name, start, end, parent in spans:
        caller = spans[parent][0] if parent >= 0 else "(root)"
        row = table.setdefault(f"{caller} > {name}", {"calls": 0, "s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
    return table


def count_within(spans, name, ancestor):
    """Number of spans called ``name`` with an ancestor called ``ancestor``."""
    return sum(1 for idx, span in enumerate(spans)
               if span[0] == name and _has_ancestor(spans, idx, ancestor))
