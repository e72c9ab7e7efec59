"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import PER_LAYER, Tracer, installed_originals, layer_metrics  # noqa: E402


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_original():
    before = installed_originals()
    tracer = Tracer()
    tracer.install()
    try:
        during = installed_originals()
        assert sum(1 for (_, a), (_, b) in zip(before, during) if a is not b) >= 20
    finally:
        tracer.uninstall()
    after = installed_originals()
    assert [name for name, _ in after] == [name for name, _ in before]
    assert all(a is b for (_, a), (_, b) in zip(before, after))


def test_install_twice_is_refused(tracer):
    with pytest.raises(RuntimeError):
        tracer.install()


def test_callers_see_the_wrapper_only_while_installed():
    from repro.experiments import jobs, parallel

    original = parallel.execute_job_lanes
    tracer = Tracer()
    tracer.install()
    try:
        assert parallel.execute_job_lanes is not original
        assert jobs.execute_job_lanes is parallel.execute_job_lanes
        assert parallel.execute_job_lanes.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert parallel.execute_job_lanes is original and jobs.execute_job_lanes is original


def test_spans_nest_and_self_times_partition_the_wall(tracer):
    import time

    from repro.datasets import load_splits

    start = time.perf_counter()
    with tracer.span("outer"):
        load_splits("iris", seed=0)
        load_splits("seeds", seed=0)
    wall = time.perf_counter() - start

    names = [span[1] for span in tracer.spans]
    assert names == ["outer", "datasets.load_splits", "datasets.load_splits"]
    assert all(span[4] == 0 for span in tracer.spans[1:])
    assert tracer.counters["datasets.load_splits.calls"] == 2

    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(tracer.covered(), abs=1e-9)
    values = layer_metrics(tracer, wall)
    assert values["trace.unattributed_s"] == pytest.approx(wall - tracer.covered())
    assert values["datasets.load_splits.busy_s"] > 0
    assert set(values) == {name for name, _ in PER_LAYER} - {"trace.overhead_s"}


def _record(outputs, deploy=(("iris/x", "ok", 1e-9),)):
    return {"outputs": outputs, "deploy": [list(d) for d in deploy], "nonfinite_jobs": 0}


OUTPUTS = {
    "surrogate_mse": [(0.25).hex(), (0.5).hex()],
    "jobs": [["iris", False, False, 0.0, 1, "default", (0.125).hex(), 50]],
    "cold_cells": [["iris", "a", 0.05, "default", (0.9).hex(), (0.01).hex()]],
    "warm_cells": [["iris", "a", 0.05, "default", (0.9).hex(), (0.02).hex()]],
}


def test_identical_outputs_pass():
    assert run.check([_record(OUTPUTS)], copy.deepcopy(OUTPUTS)) == (6, 0)


def test_perturbed_reference_registers_as_failure():
    reference = copy.deepcopy(OUTPUTS)
    mean = float.fromhex(reference["warm_cells"][0][4])
    reference["warm_cells"][0][4] = (mean + mean * 2 ** -52).hex()   # one ulp
    assert run.check([_record(OUTPUTS)], reference) == (6, 1)


def test_missing_items_and_failed_deploys_count():
    reference = copy.deepcopy(OUTPUTS)
    reference["jobs"].append(reference["jobs"][0])
    record = _record(OUTPUTS, deploy=(("iris/x", "FAILED", 2.0),))
    assert run.check([record], reference) == (6, 2)


def test_iterations_are_checked_against_each_other_without_reference():
    other = copy.deepcopy(OUTPUTS)
    other["surrogate_mse"][0] = (0.75).hex()
    assert run.check([_record(OUTPUTS), _record(other)], None) == (12, 1)


def test_benchmark_json_names_what_the_run_reports():
    import json

    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
