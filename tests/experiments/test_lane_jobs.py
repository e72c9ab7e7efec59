"""The lane tier of the experiment harness: grouping, execution, scheduling.

Pins the contracts documented in ``docs/TRAINING.md``:

- :func:`group_jobs_into_lanes` chunks same-class jobs deterministically
  and never mixes lane classes in one batch;
- :func:`execute_job_lanes` returns outcomes **bitwise identical** to
  per-job :func:`execute_job` calls (losses, epochs, parameter snapshots
  and cache digests), for mixed-ϵ and width-1 batches alike;
- :func:`run_table2_parallel` produces identical cells at any lane width;
- non-finite inputs fail loudly and leave nothing in the cache.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.core import surrogate_fingerprint
from repro.core.grad_kernels import KernelNetwork
from repro.core.lanes import _require_compatible
from repro.experiments import (
    ExperimentConfig,
    ResultCache,
    enumerate_jobs,
    execute_job,
    execute_job_lanes,
    group_jobs_into_lanes,
    job_digest,
    run_table2_parallel,
)
from repro.experiments import parallel
from repro.experiments.jobs import SPLIT_SEED, _train_config
from repro.experiments.report import render_telemetry_report
from repro.datasets import load_splits

MICRO = ExperimentConfig(
    seeds=(1, 2, 3), max_epochs=15, patience=15, n_mc_train=2, n_test=6, max_train=50,
)


class TestGrouping:
    def test_batches_never_mix_groups(self):
        jobs = enumerate_jobs(["iris", "seeds"], MICRO, scenarios=("default", "stuck-1pct"))
        batches = group_jobs_into_lanes(jobs, 8)
        assert any(len({key.train_eps for key in batch}) > 1 for batch in batches)
        for batch in batches:
            assert len({key.lane_class for key in batch}) == 1
            _require_compatible([_train_config(key, MICRO) for key in batch])

    def test_batches_cover_all_jobs_exactly_once(self):
        jobs = enumerate_jobs(["iris"], MICRO)
        batches = group_jobs_into_lanes(jobs, 2)
        flattened = [key for batch in batches for key in batch]
        assert sorted(flattened) == sorted(jobs)
        assert len(flattened) == len(set(flattened))

    def test_lane_width_caps_batch_size(self):
        jobs = enumerate_jobs(["iris"], MICRO)
        assert all(len(b) <= 2 for b in group_jobs_into_lanes(jobs, 2))
        # 3 seeds at width 2 → one pair + one singleton per group.
        widths = sorted(len(b) for b in group_jobs_into_lanes(jobs, 2))
        assert set(widths) == {1, 2}

    def test_width_one_is_per_job_serial(self):
        jobs = enumerate_jobs(["iris"], MICRO)
        assert group_jobs_into_lanes(jobs, 1) == [[key] for key in jobs]

    def test_deterministic_first_appearance_order(self):
        jobs = enumerate_jobs(["iris", "seeds"], MICRO, scenarios=("default", "stuck-1pct"))
        for width in (1, 2, 4, 8):
            batches = group_jobs_into_lanes(jobs, width)
            assert [key for batch in batches for key in batch] == jobs

    def test_variation_aware_classes_fill_across_epsilon(self):
        # 2 ϵ × 3 seeds per variation-aware class: one 6-wide batch, not 3 + 3.
        jobs = enumerate_jobs(["iris"], MICRO)
        widths = [len(batch) for batch in group_jobs_into_lanes(jobs, 8)]
        assert widths == [3, 6, 3, 6]


@pytest.mark.slow
class TestLaneExecutionBitIdentity:
    @pytest.fixture(scope="class")
    def batch(self):
        jobs = enumerate_jobs(["iris"], MICRO)
        batches = group_jobs_into_lanes(jobs, 8)
        # A learnable + variation-aware group exercises every moving part.
        return next(b for b in batches if b[0].learnable and b[0].variation_aware)

    def test_outcomes_bitwise_equal_serial(self, analytic_surrogates, batch):
        serial = [execute_job(key, MICRO, analytic_surrogates) for key in batch]
        laned = execute_job_lanes(batch, MICRO, analytic_surrogates)
        fingerprint = surrogate_fingerprint(analytic_surrogates)
        assert len(laned) == len(serial)
        for s, l in zip(serial, laned):
            assert l.key == s.key
            assert l.topology == s.topology
            assert l.val_loss == s.val_loss       # exact — no tolerance
            assert l.best_epoch == s.best_epoch
            assert l.epochs_run == s.epochs_run
            for sl, ll in zip(s.params.layers, l.params.layers):
                np.testing.assert_array_equal(ll.theta, sl.theta)
                np.testing.assert_array_equal(ll.act_omega, sl.act_omega)
                np.testing.assert_array_equal(ll.neg_omega, sl.neg_omega)
            # The cache digest is engine-independent by design, so lane
            # outcomes land on the same cache entries as serial ones.
            assert (
                job_digest(l.key, MICRO, fingerprint)
                == job_digest(s.key, MICRO, fingerprint)
            )

    def test_batch_mixes_training_epsilons(self, batch):
        assert len(batch) == 6
        assert {key.train_eps for key in batch} == {0.05, 0.1}

    def test_width_one_batch_runs_on_lanes(self, analytic_surrogates, batch, monkeypatch):
        reference = execute_job(batch[0], MICRO, analytic_surrogates)

        def serial_engine(*args, **kwargs):
            raise AssertionError("a width-1 lane batch trained on KernelNetwork")

        monkeypatch.setattr(KernelNetwork, "loss_and_grads", serial_engine)
        (single,) = execute_job_lanes(batch[:1], MICRO, analytic_surrogates)
        assert single.key == reference.key
        assert single.val_loss == reference.val_loss
        assert single.best_epoch == reference.best_epoch
        assert single.epochs_run == reference.epochs_run
        for sl, ll in zip(reference.params.layers, single.params.layers):
            np.testing.assert_array_equal(ll.theta, sl.theta)
            np.testing.assert_array_equal(ll.act_omega, sl.act_omega)
            np.testing.assert_array_equal(ll.neg_omega, sl.neg_omega)

    def test_mixed_group_batch_rejected(self, analytic_surrogates):
        jobs = enumerate_jobs(["iris"], MICRO)
        mixed = [jobs[0], next(k for k in jobs if k.group != jobs[0].group)]
        with pytest.raises(ValueError, match="group"):
            execute_job_lanes(mixed, MICRO, analytic_surrogates)

    def test_empty_batch_returns_empty(self, analytic_surrogates):
        assert execute_job_lanes([], MICRO, analytic_surrogates) == []


@pytest.mark.slow
class TestSchedulerLaneWidths:
    def test_any_lane_width_same_cells(self, analytic_surrogates):
        def signature(results):
            return [
                (c.dataset, c.setup.learnable, c.setup.variation_aware, c.eps_test,
                 c.mean, c.std, c.best_seed, c.best_val_loss)
                for c in results
            ]

        wide = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1, lane_width=8
        )
        narrow = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1, lane_width=2
        )
        off = run_table2_parallel(
            ["iris"], MICRO, surrogates=analytic_surrogates, workers=1, lane_width=1
        )
        assert signature(wide) == signature(narrow) == signature(off)


def _poisoned_splits(dataset, split, value, max_train):
    splits = load_splits(dataset, seed=SPLIT_SEED, max_train=max_train)
    poisoned = getattr(splits, split).copy()
    poisoned[2, 1] = value
    return replace(splits, **{split: poisoned})


class TestNonFiniteInputs:
    """A NaN or inf feature fails loudly instead of training a design."""

    @pytest.mark.parametrize("width", [1, 8])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("split", ["x_train", "x_val"])
    def test_execute_job_lanes_raises(self, analytic_surrogates, split, value, width):
        config = replace(MICRO, seeds=(1, 2, 3, 4))
        batch = next(b for b in group_jobs_into_lanes(enumerate_jobs(["iris"], config), 8)
                     if len(b) == 8)
        splits = _poisoned_splits("iris", split, value, config.max_train)
        with pytest.raises(ValueError, match=split):
            execute_job_lanes(batch[:width], config, analytic_surrogates, splits=splits)

    @pytest.mark.parametrize("split", ["x_train", "x_val"])
    def test_run_table2_caches_nothing(self, tmp_path, monkeypatch, analytic_surrogates, split):
        monkeypatch.setattr(
            parallel, "load_splits",
            lambda dataset, seed, max_train: _poisoned_splits(dataset, split, np.nan, max_train),
        )
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match=split):
            run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates,
                                workers=1, cache=cache)
        assert not list(cache.root.glob("*.npz"))
        assert not list(cache.root.glob("*.json"))


@pytest.mark.slow
class TestLaneSmokeGates:
    """The lane-equality gates: bitwise lanes, width-invariant cells, telemetry.

    Three seeds with a short patience so lanes early-stop at *different*
    epochs — the active stack must shrink mid-run, not just at the end.
    """

    CONFIG = ExperimentConfig(seeds=(1, 2, 3), max_epochs=150, patience=6,
                              n_mc_train=5, n_test=10, max_train=120)

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory, analytic_surrogates):
        cfg = self.CONFIG
        batch = next(b for b in group_jobs_into_lanes(enumerate_jobs(["iris"], cfg), 8)
                     if b[0].learnable and b[0].variation_aware)
        serial = [execute_job(key, cfg, analytic_surrogates) for key in batch]
        directory = tmp_path_factory.mktemp("telemetry_lanes")
        telemetry.enable(directory, manifest={"command": "lane-smoke"})
        try:
            laned = execute_job_lanes(batch, cfg, analytic_surrogates)
            cells = run_table2_parallel(["iris"], cfg, surrogates=analytic_surrogates,
                                        workers=1, lane_width=8)
        finally:
            telemetry.disable()
        return batch, serial, laned, cells, telemetry.read_events(directory), directory

    def test_gate1_lanes_bitwise_equal_serial(self, recorded):
        batch, serial, laned, _, _, _ = recorded
        assert len({key.train_eps for key in batch}) > 1, "gate 1 needs a mixed-ϵ batch"
        for s, l in zip(serial, laned):
            assert l.key == s.key
            assert l.val_loss == s.val_loss
            assert l.best_epoch == s.best_epoch and l.epochs_run == s.epochs_run
            for sl, ll in zip(s.params.layers, l.params.layers):
                np.testing.assert_array_equal(ll.theta, sl.theta)
                np.testing.assert_array_equal(ll.act_omega, sl.act_omega)
                np.testing.assert_array_equal(ll.neg_omega, sl.neg_omega)
        assert len({r.epochs_run for r in serial}) > 1, \
            "smoke config regression: lanes no longer stop at different epochs"

    def test_gate2_lane_width_8_equals_1(self, recorded, analytic_surrogates):
        cells = recorded[3]
        reference = run_table2_parallel(["iris"], self.CONFIG, surrogates=analytic_surrogates,
                                        workers=1, lane_width=1)

        def signature(results):
            return [(c.dataset, c.setup.learnable, c.setup.variation_aware, c.eps_test,
                     c.mean, c.std, c.best_seed, c.best_val_loss) for c in results]

        assert signature(cells) == signature(reference)

    def test_gate3_telemetry(self, recorded):
        batch, _, _, _, events, _ = recorded
        counters = telemetry.summarize_events(events)["counters"]
        assert int(counters.get("lanes.serial_jobs", 0)) == 0
        assert int(counters.get("lanes.trained", 0)) >= len(batch)
        named = [e for e in events if e["kind"] == "event"]
        shrinks = [e for e in named if e["name"] == "lanes.shrink"]
        assert shrinks, "no lanes.shrink events recorded"
        assert any(int(e["attrs"]["active"]) > 0 for e in shrinks), \
            "active set only ever emptied wholesale — no mid-run shrink observed"
        runs = [e for e in named if e["name"] == "lanes.run"]
        assert runs and all(int(e["attrs"]["lane_epochs"]) > 0 for e in runs)

    def test_report_prints_eta_chain_counts(self, recorded):
        events, directory = recorded[4], recorded[5]
        runs = [e["attrs"] for e in events
                if e["kind"] == "event" and e["name"] == "lanes.run"]
        computed = sum(run["eta_chains_computed"] for run in runs)
        reused = sum(run["eta_chains_reused"] for run in runs)
        assert computed > 0 and reused > 0
        report = render_telemetry_report(directory)
        assert f"η chains: {computed} computed, {reused} reused" in report
        assert "0 planned as width-1 batches" in report
