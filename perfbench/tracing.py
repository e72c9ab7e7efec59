"""In-memory span tracing around the public functions of each layer.

The wrappers live here, in the benchmark, not in the program: :func:`install`
rebinds each traced function (everywhere a ``repro`` module holds it) or
method (on its defining class) to a wrapper that records a span, and
:func:`uninstall` puts every original back.  Untraced runs never call
:func:`install`, so they execute the program's own functions.

A span is ``(id, name, start, end, parent)``; the parent is the innermost
span open when the call began.  A layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Importing the public entry points loads every module that holds a traced
# name, so no module loaded after patching can bind an unwrapped original.
_ENTRY_POINTS = ("repro.experiments", "repro.surrogate", "repro.exporting")

Span = Tuple[int, str, float, float, Optional[int]]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, 0.0, 0.0, parent))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)
            self.counters[f"{name}.calls"] += 1

    def _wrap(self, name: str, original: Callable, observe: Optional[Callable]):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(tracer.counters, result, args, kwargs)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------- #

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in _ENTRY_POINTS:
            importlib.import_module(module)
        for name, owner, attr, observe in _targets():
            if inspect.isclass(owner):
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], observe))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observe)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and \
                        module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------ #

    def busy(self) -> Dict[str, float]:
        """Inclusive time per span name (outermost call only, no double count)."""
        by_id = {s[0]: s for s in self.spans}
        busy: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, parent in self.spans:
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                busy[name] += end - start
        return busy

    def self_times(self) -> Dict[str, float]:
        """Span time not covered by child spans, per span name."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return out

    def covered(self) -> float:
        """Wall time inside at least one span (sum of root span durations)."""
        return sum(end - start for _, _, start, end, parent in self.spans if parent is None)


def installed_originals() -> List[Tuple[str, object]]:
    """``(target, object)`` for every traced name, as currently bound."""
    for module in _ENTRY_POINTS:
        importlib.import_module(module)
    out = []
    for name, owner, attr, _ in _targets():
        out.append((f"{name}@{getattr(owner, '__name__', owner)}", owner.__dict__[attr]))
        if not inspect.isclass(owner):
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and attr in module.__dict__:
                    out.append((f"{name}@{module.__name__}", module.__dict__[attr]))
    return out


# -- counter observers ---------------------------------------------------- #

def _cache_store(counters, _result, args, kwargs) -> None:
    cache, digest = args[0], args[1]
    for path in (cache.design_path(digest), cache.meta_path(digest)):
        if os.path.exists(path):
            counters["experiments.cache.bytes_written"] += os.path.getsize(path)


def _evaluate_mc(counters, _result, args, kwargs) -> None:
    from repro.core.evaluation import evaluate_mc

    bound = inspect.signature(evaluate_mc).bind(*args, **kwargs)
    bound.apply_defaults()
    rows = len(bound.arguments["x"])
    counters["core.evaluation.rows"] += rows * (bound.arguments["n_test"] if bound.arguments["epsilon"] > 0 else 1)


def _verify(counters, result, _args, _kwargs) -> None:
    counters["exporting.verify_deployment.failures"] += 0 if result.passed else 1


def _solve(counters, result, _args, _kwargs) -> None:
    counters["spice.solve_dc_batch.lanes"] += len(result)
    counters["spice.solve_dc_batch.newton_iters"] += int(result.iterations.sum())
    counters["spice.solve_dc_batch.unconverged"] += int((~result.converged).sum())


def _dataset(counters, result, _args, _kwargs) -> None:
    counters["surrogate.points_sampled"] += result.stats.n_sampled
    counters["surrogate.points_kept"] += result.stats.n_kept


def _targets():
    """``(span name, owner, attribute, counter observer)`` per traced call."""
    from repro.autograd.tensor import Tensor
    from repro.core import evaluation
    from repro.core.grad_kernels import KernelNetwork
    from repro.core.lanes import LaneNetwork
    from repro.datasets import registry
    from repro.experiments import cache, jobs
    from repro.exporting import deploy, tiling
    from repro.optim.adam import Adam
    from repro.optim.early_stopping import EarlyStopping
    from repro.spice import batch, plan
    from repro.surrogate import dataset_builder, fitting, training

    return (
        ("datasets.load_splits", registry, "load_splits", None),
        ("experiments.cache.store", cache.ResultCache, "store", _cache_store),
        ("experiments.cache.load_outcome", cache.ResultCache, "load_outcome", None),
        ("experiments.cache.load_design", cache.ResultCache, "load_design", None),
        ("experiments.jobs.execute_job_lanes", jobs, "execute_job_lanes", None),
        ("core.lanes.loss_and_grads", LaneNetwork, "loss_and_grads", None),
        ("core.lanes.loss_values", LaneNetwork, "loss_values", None),
        ("core.grad_kernels.loss_and_grads", KernelNetwork, "loss_and_grads", None),
        ("core.grad_kernels.loss_value", KernelNetwork, "loss_value", None),
        ("optim.step", Adam, "step", None),
        ("optim.early_stopping.update", EarlyStopping, "update", None),
        ("core.evaluation.evaluate_mc", evaluation, "evaluate_mc", _evaluate_mc),
        ("core.evaluation.draw_variation_samples", evaluation, "draw_variation_samples", None),
        ("exporting.compile_tiling", tiling, "compile_tiling", None),
        ("exporting.verify_deployment", deploy, "verify_deployment", _verify),
        ("spice.compile_netlist", plan, "compile_netlist", None),
        ("spice.solve_dc_batch", batch, "solve_dc_batch", _solve),
        ("surrogate.build_surrogate_dataset", dataset_builder, "build_surrogate_dataset", _dataset),
        ("surrogate.fit_ptanh_batch", fitting, "fit_ptanh_batch", None),
        ("surrogate.train_surrogate", training, "train_surrogate", None),
        ("autograd.backward", Tensor, "backward", None),
    )


#: The per-layer metrics a traced run reports, with their units.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("datasets.load_splits.busy_s", "s"),
    ("experiments.cache.store.busy_s", "s"),
    ("experiments.cache.store.calls", "count"),
    ("experiments.cache.bytes_written", "bytes"),
    ("experiments.cache.load_outcome.busy_s", "s"),
    ("experiments.cache.load_design.busy_s", "s"),
    ("experiments.cache.load_design.calls", "count"),
    ("experiments.jobs.execute_job_lanes.busy_s", "s"),
    ("experiments.jobs.execute_job_lanes.self_s", "s"),
    ("experiments.jobs.execute_job_lanes.calls", "count"),
    ("core.lanes.loss_and_grads.busy_s", "s"),
    ("core.lanes.loss_and_grads.calls", "count"),
    ("core.lanes.loss_values.busy_s", "s"),
    ("core.lanes.loss_values.calls", "count"),
    ("core.grad_kernels.loss_and_grads.busy_s", "s"),
    ("core.grad_kernels.loss_and_grads.calls", "count"),
    ("core.grad_kernels.loss_value.busy_s", "s"),
    ("core.grad_kernels.loss_value.calls", "count"),
    ("optim.step.busy_s", "s"),
    ("optim.early_stopping.update.busy_s", "s"),
    ("core.evaluation.evaluate_mc.busy_s", "s"),
    ("core.evaluation.evaluate_mc.calls", "count"),
    ("core.evaluation.rows", "count"),
    ("core.evaluation.draw_variation_samples.busy_s", "s"),
    ("exporting.compile_tiling.busy_s", "s"),
    ("exporting.verify_deployment.busy_s", "s"),
    ("exporting.verify_deployment.failures", "count"),
    ("spice.compile_netlist.busy_s", "s"),
    ("spice.solve_dc_batch.busy_s", "s"),
    ("spice.solve_dc_batch.calls", "count"),
    ("spice.solve_dc_batch.lanes", "count"),
    ("spice.solve_dc_batch.newton_iters", "count"),
    ("spice.solve_dc_batch.unconverged", "count"),
    ("surrogate.build_surrogate_dataset.busy_s", "s"),
    ("surrogate.kept_ratio", "ratio"),
    ("surrogate.fit_ptanh_batch.busy_s", "s"),
    ("surrogate.train_surrogate.busy_s", "s"),
    ("autograd.backward.busy_s", "s"),
    ("autograd.backward.calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer values of one traced iteration (``trace.overhead_s`` aside)."""
    busy, self_s, counters = tracer.busy(), tracer.self_times(), tracer.counters
    values: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric.startswith("trace."):
            continue
        if metric.endswith(".busy_s"):
            values[metric] = busy.get(metric[: -len(".busy_s")], 0.0)
        elif metric.endswith(".self_s"):
            values[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
        else:
            values[metric] = float(counters.get(metric, 0.0))
    sampled = counters.get("surrogate.points_sampled", 0.0)
    values["surrogate.kept_ratio"] = counters.get("surrogate.points_kept", 0.0) / sampled if sampled else 0.0
    values["trace.unattributed_s"] = wall_s - tracer.covered()
    return values
