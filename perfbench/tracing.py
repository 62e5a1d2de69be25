"""Per-layer counts and self times, measured from outside the library.

A layer boundary is a public function that one module of transient_lab
calls in another.  The tracer replaces each such name where its caller looks
it up: `decomposer` imports `estimate_rate` by name, so the wrapper goes on
`decomposer.estimate_rate`, not on `tail_limits.estimate_rate`.  The
`subtract_term` closures reach `evaluate_many` through `signal_core`'s own
globals, so that name is wrapped too.  No library file is edited.

Each wrapped call is one span.  Spans nest on a stack; a layer's self time is
its spans' duration minus the time of the spans they directly contain.
Spans are folded into per-layer totals in memory as they close, so nothing
is written during a run.  The program is single-threaded and waits on
nothing but local files, so no layer queues behind another and no wait time
is recorded.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from dataclasses import dataclass

WORKLOADS = ("clean3", "noisy_mc", "cli_files")

# layer -> workloads whose steps call it.  On every other workload its call
# count must read zero; a traced run checks both directions.
EXERCISED_BY = {
    "tail_limits.estimate_rate": {"clean3", "noisy_mc"},
    "tail_limits.estimate_coefficient": {"clean3", "noisy_mc", "cli_files"},
    "tail_limits.shrink_support": {"cli_files"},
    "functionals.rate_functional_matrix": {"cli_files"},
    "signal_core.evaluate_many": {"clean3", "noisy_mc", "cli_files"},
    "decomposer.decompose_numeric": {"clean3", "noisy_mc"},
    "signal_core.save_samples_csv": {"cli_files"},
    "signal_core.load_samples_csv": {"cli_files"},
    "prony_baseline.prony_fit": {"noisy_mc", "cli_files"},
    "oet_jacobi.oet_analyze": {"noisy_mc", "cli_files"},
    "oet_jacobi.build_exponential_basis": {"noisy_mc", "cli_files"},
    "signal_core.inner_product": {"noisy_mc", "cli_files"},
    "quadrature.integrate_semi_infinite": {"noisy_mc", "cli_files"},
    "cli.main": {"cli_files"},
}

# (module the caller looks the name up in, attribute, layer).  A layer
# listed under several modules counts the calls made through each.
PATCH_POINTS = (
    ("decomposer", "estimate_rate", "tail_limits.estimate_rate"),
    ("decomposer", "estimate_coefficient", "tail_limits.estimate_coefficient"),
    ("functionals", "estimate_coefficient", "tail_limits.estimate_coefficient"),
    ("functionals", "shrink_support", "tail_limits.shrink_support"),
    ("cli", "rate_functional_matrix", "functionals.rate_functional_matrix"),
    ("signal_core", "evaluate_many", "signal_core.evaluate_many"),
    ("tail_limits", "evaluate_many", "signal_core.evaluate_many"),
    ("decomposer", "evaluate_many", "signal_core.evaluate_many"),
    ("functionals", "evaluate_many", "signal_core.evaluate_many"),
    ("decomposer", "decompose_numeric", "decomposer.decompose_numeric"),
    ("cli", "decompose_numeric", "decomposer.decompose_numeric"),
    ("cli", "save_samples_csv", "signal_core.save_samples_csv"),
    ("cli", "load_samples_csv", "signal_core.load_samples_csv"),
    ("prony_baseline", "prony_fit", "prony_baseline.prony_fit"),
    ("cli", "prony_fit", "prony_baseline.prony_fit"),
    ("oet_jacobi", "oet_analyze", "oet_jacobi.oet_analyze"),
    ("cli", "oet_analyze", "oet_jacobi.oet_analyze"),
    ("oet_jacobi", "build_exponential_basis", "oet_jacobi.build_exponential_basis"),
    ("cli", "build_exponential_basis", "oet_jacobi.build_exponential_basis"),
    ("oet_jacobi", "inner_product", "signal_core.inner_product"),
    ("signal_core", "integrate_semi_infinite", "quadrature.integrate_semi_infinite"),
    ("cli", "main", "cli.main"),
)

BYTES_LAYERS = ("signal_core.save_samples_csv", "signal_core.load_samples_csv")
STOP_REASONS = ("residual_floor", "max_terms", "signal_vanished", "rate_collision")


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    fail: int = 0
    bytes: int = 0


class Tracer:
    """Per-layer totals plus the counts read off what the layers returned."""

    def __init__(self):
        self.layers = {name: Layer() for name in EXERCISED_BY}
        self.counts = {"decomposer.terms_returned": 0, "decomposer.iterations": 0,
                       "prony_baseline.order_reduced": 0, "prony_baseline.rejected_roots": 0}
        self.counts.update({f"decomposer.stop.{r}": 0 for r in STOP_REASONS})
        self._open = []   # child time accumulated by each open span

    def _observe(self, name, result):
        if name == "decomposer.decompose_numeric":
            self.counts["decomposer.terms_returned"] += len(result.terms)
            self.counts["decomposer.iterations"] += len(result.iteration_tail_norms)
            self.counts[f"decomposer.stop.{result.termination_reason}"] += 1
        elif name == "prony_baseline.prony_fit":
            self.counts["prony_baseline.order_reduced"] += sum(
                f.startswith("order_reduced") for f in result.flags)
            self.counts["prony_baseline.rejected_roots"] += len(result.rejected_roots)

    def wrap(self, fn, name):
        layer = self.layers[name]
        open_spans = self._open
        counts_bytes = name in BYTES_LAYERS
        # cli.main reports failure as an exit code, not an exception
        bad_exit = name == "cli.main"

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                layer.fail += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                layer.calls += 1
                layer.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if counts_bytes:
                # cli passes the path positionally: save(samples, path), load(path)
                layer.bytes += os.path.getsize(args[-1])
            if bad_exit and result != 0:
                layer.fail += 1
            self._observe(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(f"transient_lab.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call_counts(self):
        """Every count that must repeat exactly across runs at one seed."""
        out = dict(self.counts)
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.fail"] = layer.fail
            if name in BYTES_LAYERS:
                out[f"{name}.bytes"] = layer.bytes
        return out


def claim_violations(workload, layers):
    """Layers whose call count contradicts EXERCISED_BY on this workload."""
    bad = []
    for name, users in EXERCISED_BY.items():
        calls = layers[name].calls
        if (workload in users) != (calls > 0):
            want = "non-zero" if workload in users else "zero"
            bad.append(f"{name}.calls is {calls} on {workload}, expected {want}")
    return bad
