"""Span tracer for the benchmark's traced pass.

The tracer wraps cmnlab's functions where one module calls into another: each
module-level name that refers to a function of another cmnlab module, each
module imported as a whole (``cli.report``, ``audit.zoo``), the entry points
the benchmark calls, a few calls inside one module that mark a layer of their
own (``bounds.detect`` recursion, ``discord.measure_state``) and the
validation of ``DensityMatrix`` and ``MeasurementFamily``.  A span is named
after the module that defines the callee (``bounds.filter_to_fnf`` in
``bounds`` records a ``normal_form.filter_to_fnf`` span).  Spans stay in
memory; :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "report", "bounds", "normal_form", "discord", "audit", "zoo",
          "tensor", "basis", "cmn", "linalg")

# (module, name) pairs patched on the module itself: the entry points the
# benchmark calls, and calls inside one module that the metrics need.
SELF_CALLS = (
    ("cli", "main"),
    ("cli", "load_state"),
    ("audit", "separability_audit"),
    ("bounds", "detect"),
    ("discord", "global_discord_cmn"),
    ("discord", "bipartite_discord_cmn"),
    ("discord", "measure_state"),
    ("discord", "measurement_from_angles"),
    ("discord", "computational_measurement"),
)
# Classes whose __post_init__ validation is traced under the class name.
VALIDATED = (("linalg", "DensityMatrix"), ("discord", "MeasurementFamily"))

ZOO_SAMPLERS = ("zoo.random_density", "zoo.random_fully_separable",
                "zoo.random_biseparable", "zoo.random_fully_separable_sfnf")
MEASUREMENT_BUILD = ("discord.measurement_from_angles",
                     "discord.computational_measurement", "discord.MeasurementFamily")

_MARK = "__bench_traced__"


def load_modules():
    return {name: importlib.import_module(f"cmnlab.{name}") for name in LAYERS}


def _layer_of(module_name):
    return module_name.rsplit(".", 1)[-1]


def _traceable(value):
    return (callable(value) and not isinstance(value, type)
            and not inspect.isgeneratorfunction(value)
            and str(getattr(value, "__module__", "")).startswith("cmnlab."))


def assert_untraced(modules):
    """Raise if any wrapper or module proxy is still installed."""
    for name, mod in modules.items():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"tracing wrapper left on {name}.{attr}")
    for mod_name, cls_name in VALIDATED:
        hook = getattr(modules[mod_name], cls_name).__post_init__
        if getattr(hook, _MARK, False):
            raise RuntimeError(f"tracing wrapper left on {cls_name}.__post_init__")


class Tracer:
    """Records spans (name, start, end, parent span, op id, ok) in arrays."""

    def __init__(self, modules):
        self.modules = modules
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")
        self.op_id = -1
        self._stack = []
        self._undo = []
        self.svd_entries = 0
        self.detect_subsets = set()  # (op id, absolute kept parties)
        self._subset_stack = []
        self._subset_of = {}  # id(reduced state) -> absolute kept parties
        self._hooks = {
            "bounds.detect": (self._detect_enter, self._detect_exit),
            "linalg.partial_trace": (None, self._partial_trace_exit),
            "linalg.singular_values": (self._svd_enter, None),
        }

    # -- installation -------------------------------------------------------

    def install(self):
        mods = self.modules
        known = {m.__name__ for m in mods.values()}
        for name, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.ModuleType) and value.__name__ in known:
                    self._patch(mod, attr, self._proxy(value))
                elif _traceable(value) and value.__module__ != mod.__name__:
                    self._patch(mod, attr, self._wrap(value))
        for name, attr in SELF_CALLS:
            self._patch(mods[name], attr, self._wrap(getattr(mods[name], attr)))
        for name, cls_name in VALIDATED:
            cls = getattr(mods[name], cls_name)
            self._patch(cls, "__post_init__",
                        self._wrap(cls.__post_init__, f"{name}.{cls_name}"))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, replacement):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def _proxy(self, module):
        ns = types.SimpleNamespace(**vars(module))
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and _traceable(value)
                    and value.__module__ == module.__name__):
                setattr(ns, attr, self._wrap(value))
        setattr(ns, _MARK, True)
        return ns

    def _wrap(self, fn, name=None):
        if getattr(fn, _MARK, False):
            raise RuntimeError(f"{fn!r} is already traced")
        if name is None:
            name = f"{_layer_of(fn.__module__)}.{fn.__name__}"
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        enter, leave = self._hooks.get(name, (None, None))
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.ok.append(0)
            self.end.append(0.0)
            self.start.append(0.0)
            stack.append(idx)
            if enter is not None:
                enter(args)
            result = None
            self.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                self.ok[idx] = 1
                return result
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                if leave is not None:
                    leave(args, result)

        setattr(traced, _MARK, True)
        return traced

    def begin_op(self, op_id):
        self.op_id = op_id
        self._subset_of.clear()

    # -- hooks --------------------------------------------------------------

    def _detect_enter(self, args):
        rho = args[0]
        subset = self._subset_of.pop(id(rho), None) or tuple(range(len(rho.dims)))
        self._subset_stack.append(subset)
        self.detect_subsets.add((self.op_id, subset))

    def _detect_exit(self, args, result):
        self._subset_stack.pop()

    def _partial_trace_exit(self, args, result):
        # keep is relative to the reduced state; map it back to the parties
        # of the state the outermost detect was called on
        if result is not None and self._subset_stack:
            outer = self._subset_stack[-1]
            keep = sorted(set(int(k) for k in args[1]))
            self._subset_of[id(result)] = tuple(outer[k] for k in keep)

    def _svd_enter(self, args):
        self.svd_entries += int(np.size(args[0]))

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, counts, factors):
        """Per-layer metrics of everything traced, as name -> (value, unit).

        ``counts`` holds the benchmark's own tallies of the traced pass
        (``report.output_bytes``, ``discord.evaluations``, ``audit.zoo_trials``);
        ``factors[op]`` scales op ``op``'s spans to reference speed. A span
        also holds any speed sample that fired inside it (about 4% of wall time).
        """
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        dur = [(self.end[i] - self.start[i]) * factors[self.op[i]] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls, total, self_s = Counter(), Counter(), Counter()
        layer_self = Counter()
        for i, name in enumerate(names):
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - child[i]

        def under(i, targets):
            p = self.parent[i]
            while p >= 0:
                if names[p] in targets:
                    return True
                p = self.parent[p]
            return False

        def outermost_s(targets):
            return sum(dur[i] for i in range(n)
                       if names[i] in targets and not under(i, targets))

        def in_layer(counter, layer):
            return sum(v for name, v in counter.items() if name.startswith(layer + "."))

        filt = "normal_form.filter_to_fnf"
        filter_ok = sum(1 for i in range(n) if names[i] == filt and self.ok[i])
        local_filters = sum(1 for i in range(n)
                            if names[i] == "linalg.apply_local" and under(i, (filt,)))
        detect_calls = calls["bounds.detect"]
        subsets = len(self.detect_subsets)
        zoo_calls = sum(calls[s] for s in ZOO_SAMPLERS)
        ratio = lambda a, b: a / b if b else 0.0
        pt = ("linalg.partial_trace", "linalg.partial_trace_raw")
        return {
            "cli.load_state_s": (total["cli.load_state"], "s"),
            "report.serialize_s": (in_layer(total, "report"), "s"),
            "report.output_bytes": (counts["report.output_bytes"], "bytes"),
            "bounds.detect_calls": (detect_calls, "count"),
            "bounds.detect_subsets": (subsets, "count"),
            "bounds.detect_unique_ratio": (ratio(subsets, detect_calls), "ratio"),
            "bounds.detect_self_s": (self_s["bounds.detect"], "s"),
            "normal_form.filter_calls": (calls[filt], "count"),
            "normal_form.filter_s": (total[filt], "s"),
            "normal_form.local_filters": (local_filters, "count"),
            "normal_form.filter_ok_ratio": (ratio(filter_ok, calls[filt]), "ratio"),
            "zoo.sample_calls": (zoo_calls, "count"),
            "zoo.sample_s": (sum(total[s] for s in ZOO_SAMPLERS), "s"),
            "audit.sample_ok_ratio": (ratio(counts["audit.zoo_trials"], zoo_calls), "ratio"),
            "audit.self_s": (layer_self["audit"], "s"),
            "discord.evaluations": (counts["discord.evaluations"], "count"),
            "discord.measure_state_s": (total["discord.measure_state"], "s"),
            "discord.measurement_build_s": (outermost_s(MEASUREMENT_BUILD), "s"),
            "tensor.build_calls": (calls["tensor.build"], "count"),
            "tensor.build_s": (total["tensor.build"], "s"),
            "basis.expectations_s": (total["basis.basis_expectations"], "s"),
            "cmn.calls": (in_layer(calls, "cmn"), "count"),
            "cmn.self_s": (layer_self["cmn"], "s"),
            "linalg.partial_trace_calls": (sum(calls[x] for x in pt), "count"),
            "linalg.partial_trace_s": (outermost_s(pt), "s"),
            "linalg.apply_local_calls": (calls["linalg.apply_local"], "count"),
            "linalg.apply_local_s": (total["linalg.apply_local"], "s"),
            "linalg.density_checks": (calls["linalg.DensityMatrix"], "count"),
            "linalg.density_check_s": (total["linalg.DensityMatrix"], "s"),
            "linalg.svd_calls": (calls["linalg.singular_values"], "count"),
            "linalg.svd_s": (total["linalg.singular_values"], "s"),
            "linalg.svd_entries": (self.svd_entries, "count"),
        }
