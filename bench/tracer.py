"""Span and call-count tracing of simdoa's public functions, from outside the package.

``Tracer.install`` replaces each listed function by a wrapper in every
``simdoa`` module that holds it, so a name bound by ``from .x import y``
is traced like the module attribute ``x.y``. ``Tracer.uninstall`` puts the
originals back. Coarse functions record a span (name, start, end, parent,
root) and their self time: the span's duration minus the time covered by
traced children. The per-cell scalars are counted only, and their time
lands in the caller's self time. A reference held outside simdoa's module
globals, as in the benchmark's own modules, is not rebound: the benchmark
calls the package through module attributes, and the self-check in
``run.py`` reports any listed function that records no calls.
"""

import gzip
import importlib
import sys
import time
from collections import defaultdict

from workloads import FIT_TARGET_DB, WORKLOADS

LAYERS = ("geometry", "wavemodel", "trainer", "estimator", "analysis",
          "experiments", "cli")

# One row per traced function: whether it records spans or only counts,
# the workloads that call it (every other workload must record zero
# calls), the end-to-end metric a faster version should move and the
# workloads where that should show.
_ALL = tuple(WORKLOADS)
_FIT = ("fit-4x4",)
_MC = ("mc-bound-4x4",)
_PAIRED = ("paired-2x2",)
_EST = ("mc-bound-4x4", "paired-2x2")

FUNCTIONS = {
    "trainer.gradient": ("span", _FIT, "ops_per_s", _FIT),
    "trainer.layer_inputs": ("span", _FIT, "ops_per_s", _FIT),
    "trainer.train": ("span", _FIT, "ops_per_s", _FIT),
    "wavemodel.forward_response": ("span", _FIT, "ops_per_s", _FIT),
    "wavemodel.optimal_scale": ("span", _FIT, "ops_per_s", _FIT),
    "wavemodel.fitting_loss": ("span", _FIT, "ops_per_s", _FIT),
    "estimator.collect_snapshots": ("span", _EST, "ops_per_s", _EST),
    "estimator.zeroth_layer_config": ("span", _EST, "ops_per_s", _EST),
    "wavemodel.synthesize_received": ("span", _EST, "ops_per_s", _EST),
    "estimator.zeroth_layer_phase": ("count", _EST, "ops_per_s", _EST),
    "analysis.mse_bound": ("span", _MC, "ops_per_s", _MC),
    "analysis.clean_field": ("span", _MC, "ops_per_s", _MC),
    "estimator.electrical_angles": ("count", _EST, "ops_per_s", _MC),
    "experiments.digital_baseline": ("span", _PAIRED, "ops_per_s", _PAIRED),
    "experiments.paired_trial": ("span", _PAIRED, "ops_per_s", _PAIRED),
    "geometry.dft_matrix": ("span", _ALL, "ops_per_s", _PAIRED),
    "experiments.run_monte_carlo": ("span", _MC, "ops_per_s", _MC),
    "experiments.sample_source": ("span", _EST, "ops_per_s", _EST),
    "estimator.estimate_from_map": ("span", _EST, "ops_per_s", _EST),
    "geometry.linear_to_grid": ("count", _EST, "ops_per_s", _EST),
    "cli.main": ("span", _MC, "ops_per_s", _MC),
    "cli.parse_config": ("span", _MC, "ops_per_s", _MC),
    "cli.write_csv": ("span", _MC, "ops_per_s", _MC),
    "geometry.build_propagation_matrices": ("span", _FIT, "setup_s", _FIT),
}

# Outcome ratios: numerator counted by an observer on the named function's
# result, base = that function's call count.
RATIOS = {
    "trainer.target_ratio": ("trainer.train",
                             lambda report: report.best_db <= FIT_TARGET_DB,
                             "fit quality (the claim-3 gate)", _FIT),
    "estimator.realizable_ratio": ("estimator.estimate_from_map",
                                   lambda est: est.realizable,
                                   "none: a diagnostic that must not change", _EST),
}


class Tracer:
    """Wraps the functions in FUNCTIONS while installed; holds spans in memory."""

    def __init__(self):
        self._originals = {}
        self._wrappers = {}
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.hits = defaultdict(int)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.t0 = time.perf_counter_ns()

    def _span_wrapper(self, key, fn, observe):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            # frame: [time covered by children, span id, root span id]
            frame = [0, span_id, parent[2] if parent else span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.self_ns[key] += dur - frame[0]
                tracer.calls[key] += 1
                if parent is not None:
                    parent[0] += dur
                tracer.spans.append((span_id, parent[1] if parent else -1,
                                     frame[2], key, start, end))
            if observe is not None and observe(result):
                tracer.hits[key] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every listed function in every loaded simdoa module."""
        observers = {fn_key: observe for fn_key, observe, *_ in RATIOS.values()}
        for key, (kind, *_rest) in FUNCTIONS.items():
            module, name = key.split(".")
            fn = getattr(importlib.import_module(f"simdoa.{module}"), name)
            self._originals[key] = fn
            if kind == "span":
                self._wrappers[key] = self._span_wrapper(key, fn, observers.get(key))
            else:
                self._wrappers[key] = self._count_wrapper(key, fn)
        self._rebind(self._originals, self._wrappers)

    def uninstall(self):
        self._rebind(self._wrappers, self._originals)
        self._originals, self._wrappers = {}, {}

    @staticmethod
    def _simdoa_modules():
        return [m for n, m in sys.modules.items()
                if m is not None and (n == "simdoa" or n.startswith("simdoa."))]

    def _rebind(self, old, new):
        by_id = {id(fn): new[key] for key, fn in old.items()}
        for module in self._simdoa_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    setattr(module, attr, by_id[id(value)])

    def check_prediction(self, workload):
        """Names of functions whose call count contradicts FUNCTIONS for ``workload``.

        A function the workload calls must record at least one call; every
        other one must record exactly zero.
        """
        wrong = []
        for key, (_kind, called_on, *_rest) in FUNCTIONS.items():
            n = self.calls.get(key, 0)
            if (n == 0) == (workload in called_on):
                wrong.append(f"{key}.calls={n}")
        return wrong

    def metrics(self, wall_s, overhead_pct):
        """Per-layer metrics in the shape of the benchmark's result line."""
        out = {}
        layer_ns = defaultdict(int)
        for key, (kind, *_rest) in FUNCTIONS.items():
            out[f"{key}.calls"] = (self.calls.get(key, 0), "count")
            if kind == "span":
                ns = self.self_ns.get(key, 0)
                layer_ns[key.split(".")[0]] += ns
                out[f"{key}.self_s"] = (ns / 1e9, "s")
        for ratio, (fn_key, *_rest) in RATIOS.items():
            base = self.calls.get(fn_key, 0)
            out[ratio] = (self.hits.get(fn_key, 0) / base if base else 0.0, "ratio")
        for layer in LAYERS:
            s = layer_ns[layer] / 1e9
            out[f"{layer}.self_s"] = (s, "s")
            out[f"{layer}.share"] = (s / wall_s if wall_s > 0 else 0.0, "ratio")
        out["tracer.wall_s"] = (wall_s, "s")
        out["tracer.overhead_pct"] = (overhead_pct, "%")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    def write_spans(self, path):
        """Spans as gzip CSV: id, parent, root, name, start_ns, end_ns (from reset)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,root,name,start_ns,end_ns\n")
            for span_id, parent, root, key, start, end in sorted(self.spans):
                fh.write(f"{span_id},{parent},{root},{key},"
                         f"{start - self.t0},{end - self.t0}\n")
