"""Spans around the public functions of each ``symwave`` module.

``install()`` wraps every traced function from outside the program: it
replaces the defining module's attribute, every other ``symwave`` module's
binding of the same function object (names imported with ``from .x import
y``), the ``cli`` runner table, and methods on their classes.  Each call
records one span ``[name id, start, end, parent span, size]``; ``size`` is a
count taken from the arguments or the result where a metric needs one.  The
spans stay in memory until ``dump``.  ``layer_metrics`` derives the per-layer
metrics of one traced command from its spans.
"""

import functools
import importlib
import json
import math
import sys
import time

import numpy as np


def _points(x):
    return math.prod(np.shape(x)[:-1])


def _arg(args, kwargs, pos, key, default):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


# (module, attribute or Class.method, span name, size from (args, kwargs, result))
TARGETS = [
    ("symwave.cli", "run_index", "cli.run_index", None),
    ("symwave.cli", "run_nonsqueeze", "cli.run_nonsqueeze", None),
    ("symwave.cli", "run_evolve", "cli.run_evolve", None),
    ("symwave.capacity", "shadow_area", "capacity.shadow_area",
     lambda a, k, r: _arg(a, k, 4, "samples", 1_000_000)),
    ("symwave.capacity", "apply_symplectomorphism", "capacity.apply_symplectomorphism",
     lambda a, k, r: _points(_arg(a, k, 1, "z", ()))),
    ("symwave.capacity", "random_symplectomorphism", "capacity.random_symplectomorphism", None),
    ("symwave.capacity", "identity_symplectomorphism", "capacity.identity_symplectomorphism", None),
    ("symwave.polynomials", "Polynomial.grad", "polynomials.grad",
     lambda a, k, r: _points(_arg(a, k, 1, "x", ()))),
    ("symwave.polynomials", "Polynomial.value", "polynomials.value", None),
    ("symwave.polynomials", "Polynomial.hess", "polynomials.hess", None),
    ("symwave.symplectic", "souriau_w", "symplectic.souriau_w", None),
    ("symwave.symplectic", "orthonormalize_frame", "symplectic.orthonormalize_frame", None),
    ("symwave.symplectic", "transversal", "symplectic.transversal", None),
    ("symwave.symplectic", "intersection_dim", "symplectic.intersection_dim", None),
    ("symwave.symplectic", "signature", "symplectic.signature", None),
    ("symwave.symplectic", "frame_from_souriau", "symplectic.frame_from_souriau", None),
    ("symwave.symplectic", "random_lagrangian_frame", "symplectic.random_lagrangian_frame", None),
    ("symwave.maslov", "principal_log_trace", "maslov.principal_log_trace", None),
    ("symwave.maslov", "leray_index", "maslov.leray_index", None),
    ("symwave.maslov", "leray_index_transversal", "maslov.leray_index_transversal", None),
    ("symwave.maslov", "inert", "maslov.inert", None),
    ("symwave.maslov", "lift_path_adaptive", "maslov.lift_path_adaptive",
     lambda a, k, r: len(r[0])),
    ("symwave.maslov", "transport_lift", "maslov.transport_lift", None),
    ("symwave.flows", "flow_map", "flows.flow_map",
     lambda a, k, r: _arg(a, k, 4, "steps", 1000)),
    ("symwave.flows", "flow_path", "flows.flow_path",
     lambda a, k, r: _arg(a, k, 4, "steps", 1000)),
    ("symwave.waveforms", "van_vleck_propagate", "waveforms.van_vleck_propagate",
     lambda a, k, r: len(_arg(a, k, 5, "x_grid", ()))),
    ("symwave.waveforms", "morse_index", "waveforms.morse_index", None),
    ("symwave.waveforms", "Waveform.index", "waveforms.index", None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, size=None):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[4] = size(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install(tracer):
    """Wrap every target, at every binding a ``symwave`` module holds."""
    runners = importlib.import_module("symwave.cli")._RUNNERS
    modules = [m for key, m in sys.modules.items()
               if key == "symwave" or key.startswith("symwave.")]
    for modname, attr, name, size in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, size)
        setattr(owner, attr, wrapper)
        for namespace in [vars(m) for m in modules] + [runners]:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper


class _Spans:
    def __init__(self, trace):
        self.names = trace["names"]
        self.spans = trace["spans"]
        self.by_name = {}
        for i, span in enumerate(self.spans):
            self.by_name.setdefault(self.names[span[0]], []).append(i)

    def ids(self, name):
        return self.by_name.get(name, [])

    def calls(self, name):
        return len(self.ids(name))

    def seconds(self, name):
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.ids(name))

    def size(self, name):
        return sum(self.spans[i][4] for i in self.ids(name))

    def ancestor(self, i, name):
        """The nearest ancestor of span ``i`` called ``name``, or -1."""
        parent = self.spans[i][3]
        while parent >= 0 and self.names[self.spans[parent][0]] != name:
            parent = self.spans[parent][3]
        return parent

    def count_under(self, names, ancestor):
        return sum(self.ancestor(i, ancestor) >= 0 for n in names for i in self.ids(n))

    def self_seconds(self, name):
        """Duration of the spans of ``name`` less the time their child spans cover."""
        ids = set(self.ids(name))
        total = self.seconds(name)
        for span in self.spans:
            if span[3] in ids:
                total -= span[2] - span[1]
        return total


def _ratio(num, den):
    return num / den if den else 0.0


# name -> unit; every per-layer metric is "lower is better"
LAYER_UNITS = {
    "cli.runner_s": "s", "cli.emit_s": "s",
    "capacity.shadow_area_calls": "count", "capacity.shadow_area_s": "s",
    "capacity.shadow_self_s": "s", "capacity.apply_symplectomorphism_s": "s",
    "capacity.mapped_points": "count", "capacity.remap_factor": "ratio",
    "capacity.random_symplectomorphism_s": "s",
    "polynomials.grad_calls": "count", "polynomials.grad_points": "count",
    "polynomials.grad_s": "s", "polynomials.grad_ns_per_point": "ns",
    "polynomials.value_calls": "count", "polynomials.value_s": "s",
    "polynomials.hess_calls": "count", "polynomials.hess_s": "s",
    "symplectic.souriau_w_calls": "count", "symplectic.souriau_w_s": "s",
    "symplectic.orthonormalize_frame_calls": "count",
    "symplectic.orthonormalize_per_frame": "ratio",
    "symplectic.pair_spectra": "count", "symplectic.pair_spectra_per_index": "ratio",
    "symplectic.signature_s": "s", "symplectic.frame_from_souriau_calls": "count",
    "symplectic.random_lagrangian_frame_s": "s",
    "maslov.leray_index_calls": "count", "maslov.leray_index_s": "s",
    "maslov.leray_index_transversal_calls": "count",
    "maslov.inert_calls": "count", "maslov.inert_s": "s",
    "maslov.auxiliary_evaluations": "count",
    "maslov.lift_path_adaptive_calls": "count", "maslov.lift_path_adaptive_s": "s",
    "maslov.lift_samples": "count", "maslov.transport_lift_s": "s",
    "flows.flow_map_calls": "count", "flows.flow_path_calls": "count",
    "flows.flow_s": "s", "flows.integrator_steps": "count", "flows.step_us": "us",
    "waveforms.van_vleck_propagate_s": "s", "waveforms.van_vleck_points": "count",
    "waveforms.van_vleck_flows_per_point": "ratio", "waveforms.morse_index_s": "s",
    "waveforms.morse_flows_per_window": "ratio", "waveforms.index_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(trace):
    """Per-layer metrics of one traced command (all but ``trace.overhead_s``)."""
    s = _Spans(trace)
    runners = [n for n in s.by_name if n.startswith("cli.run_")]
    runner_s = sum(s.seconds(n) for n in runners)

    shadow_samples = max((s.spans[i][4] for i in s.ids("capacity.shadow_area")), default=0)
    maps_with_identity = (s.calls("capacity.random_symplectomorphism")
                          + s.calls("capacity.identity_symplectomorphism"))
    mapped = s.size("capacity.apply_symplectomorphism")

    grad_points = s.size("polynomials.grad")
    pair_spectra = sum(s.calls(n) for n in ("symplectic.transversal",
                                            "symplectic.intersection_dim",
                                            "maslov.principal_log_trace"))
    auxiliary = s.count_under(["maslov.inert"], "maslov.leray_index")
    index_evals = (s.calls("maslov.leray_index") + s.calls("maslov.inert") - auxiliary)
    # a leray_index call took the auxiliary-plane path iff inert ran under it
    auxiliary_path = {s.ancestor(i, "maslov.leray_index") for i in s.ids("maslov.inert")}
    auxiliary_path.discard(-1)

    flows = ("flows.flow_map", "flows.flow_path")
    flow_s = sum(s.seconds(n) for n in flows)
    steps = sum(s.size(n) for n in flows)

    return {
        "cli.runner_s": runner_s,
        "cli.emit_s": s.seconds("cli.main") - runner_s,
        "capacity.shadow_area_calls": s.calls("capacity.shadow_area"),
        "capacity.shadow_area_s": s.seconds("capacity.shadow_area"),
        "capacity.shadow_self_s": s.self_seconds("capacity.shadow_area"),
        "capacity.apply_symplectomorphism_s": s.seconds("capacity.apply_symplectomorphism"),
        "capacity.mapped_points": mapped,
        "capacity.remap_factor": _ratio(mapped, shadow_samples * maps_with_identity),
        "capacity.random_symplectomorphism_s": s.seconds("capacity.random_symplectomorphism"),
        "polynomials.grad_calls": s.calls("polynomials.grad"),
        "polynomials.grad_points": grad_points,
        "polynomials.grad_s": s.seconds("polynomials.grad"),
        "polynomials.grad_ns_per_point": _ratio(1e9 * s.seconds("polynomials.grad"), grad_points),
        "polynomials.value_calls": s.calls("polynomials.value"),
        "polynomials.value_s": s.seconds("polynomials.value"),
        "polynomials.hess_calls": s.calls("polynomials.hess"),
        "polynomials.hess_s": s.seconds("polynomials.hess"),
        "symplectic.souriau_w_calls": s.calls("symplectic.souriau_w"),
        "symplectic.souriau_w_s": s.seconds("symplectic.souriau_w"),
        "symplectic.orthonormalize_frame_calls": s.calls("symplectic.orthonormalize_frame"),
        "symplectic.orthonormalize_per_frame": _ratio(
            s.calls("symplectic.orthonormalize_frame"),
            s.calls("symplectic.random_lagrangian_frame")),
        "symplectic.pair_spectra": pair_spectra,
        "symplectic.pair_spectra_per_index": _ratio(pair_spectra, index_evals),
        "symplectic.signature_s": s.seconds("symplectic.signature"),
        "symplectic.frame_from_souriau_calls": s.calls("symplectic.frame_from_souriau"),
        "symplectic.random_lagrangian_frame_s": s.seconds("symplectic.random_lagrangian_frame"),
        "maslov.leray_index_calls": s.calls("maslov.leray_index"),
        "maslov.leray_index_s": s.seconds("maslov.leray_index"),
        "maslov.leray_index_transversal_calls": (s.calls("maslov.leray_index")
                                                 - len(auxiliary_path)),
        "maslov.inert_calls": s.calls("maslov.inert"),
        "maslov.inert_s": s.seconds("maslov.inert"),
        "maslov.auxiliary_evaluations": auxiliary,
        "maslov.lift_path_adaptive_calls": s.calls("maslov.lift_path_adaptive"),
        "maslov.lift_path_adaptive_s": s.seconds("maslov.lift_path_adaptive"),
        "maslov.lift_samples": s.size("maslov.lift_path_adaptive"),
        "maslov.transport_lift_s": s.seconds("maslov.transport_lift"),
        "flows.flow_map_calls": s.calls("flows.flow_map"),
        "flows.flow_path_calls": s.calls("flows.flow_path"),
        "flows.flow_s": flow_s,
        "flows.integrator_steps": steps,
        "flows.step_us": _ratio(1e6 * flow_s, steps),
        "waveforms.van_vleck_propagate_s": s.seconds("waveforms.van_vleck_propagate"),
        "waveforms.van_vleck_points": s.size("waveforms.van_vleck_propagate"),
        "waveforms.van_vleck_flows_per_point": _ratio(
            s.count_under(flows, "waveforms.van_vleck_propagate"),
            s.size("waveforms.van_vleck_propagate")),
        "waveforms.morse_index_s": s.seconds("waveforms.morse_index"),
        "waveforms.morse_flows_per_window": _ratio(
            s.count_under(flows, "waveforms.morse_index"),
            s.calls("waveforms.morse_index")),
        "waveforms.index_s": s.seconds("waveforms.index"),
    }
