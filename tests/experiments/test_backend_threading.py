"""The removed execution backend leaves no trace in digests, caches or CLI.

Jobs used to record which kernel backend trained them.  There is one
executor now: outcomes, sidecars and journal lines carry no backend
field, the ``table2`` CLI has no ``--backend`` flag, and cache entries
written while the field existed (every committed entry carries
``"backend": "numpy"``) still hit under their unchanged digests.  The
class and test names are those of the backend-threading suite these
checks replace.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import surrogate_fingerprint
from repro.datasets import load_splits
from repro.experiments import (
    ExperimentConfig,
    ResultCache,
    RunJournal,
    execute_job,
    execute_job_lanes,
    job_digest,
)
from repro.experiments.cli import _build_parser
from repro.experiments.jobs import SPLIT_SEED, JobKey

MICRO = ExperimentConfig(
    seeds=(1,), max_epochs=10, patience=10, n_mc_train=2, n_test=4, max_train=50,
)
KEY = JobKey("iris", True, True, 0.05, 1)
COMMITTED_CACHE = Path(__file__).resolve().parents[2] / "artifacts" / "table2_cache"


def assert_same_outcome(mine, ref):
    assert mine.val_loss == ref.val_loss
    assert mine.best_epoch == ref.best_epoch
    assert mine.epochs_run == ref.epochs_run
    for a, b in zip(mine.params.layers, ref.params.layers):
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.act_omega, b.act_omega)
        np.testing.assert_array_equal(a.neg_omega, b.neg_omega)


class TestDigestSharing:
    def test_backend_outside_training_fingerprint(self):
        assert "backend" not in MICRO.training_fingerprint()

    def test_outcomes_bitwise_across_backends(self, analytic_surrogates):
        # The run-level splits hand-off: lane batches trained on splits
        # loaded once by the caller equal batches that load their own.
        keys = [JobKey("iris", True, True, 0.05, seed) for seed in (1, 2)]
        splits = load_splits("iris", seed=SPLIT_SEED, max_train=MICRO.max_train)
        shared = execute_job_lanes(keys, MICRO, analytic_surrogates, splits=splits)
        own = execute_job_lanes(keys, MICRO, analytic_surrogates)
        for mine, ref in zip(shared, own):
            assert_same_outcome(mine, ref)
        assert_same_outcome(execute_job(keys[0], MICRO, analytic_surrogates), own[0])

    def test_cache_entry_shared_across_backends(self, tmp_path, analytic_surrogates):
        # An entry written while sidecars recorded a backend is a hit under
        # the same digest, and restores the same outcome.
        cache = ResultCache(tmp_path / "cache")
        digest = job_digest(KEY, MICRO, surrogate_fingerprint(analytic_surrogates))
        cache.store(digest, execute_job(KEY, MICRO, analytic_surrogates), analytic_surrogates)
        current = cache.load_outcome(digest)
        meta = json.loads(cache.meta_path(digest).read_text())
        meta["backend"] = "fused"
        cache.meta_path(digest).write_text(json.dumps(meta))
        legacy = cache.load_outcome(digest)
        assert legacy is not None and legacy.cache_hit
        assert legacy == current
        # Every committed entry still parses as a hit.
        committed = ResultCache(COMMITTED_CACHE)
        digests = sorted(p.stem for p in COMMITTED_CACHE.glob("*.npz"))
        assert digests
        for entry in digests:
            assert committed.load_meta(entry)["backend"] == "numpy"
            outcome = committed.load_outcome(entry)
            assert outcome is not None and outcome.cache_hit and outcome.digest == entry


class TestRecording:
    def test_sidecar_and_journal_record_backend(self, tmp_path, analytic_surrogates):
        outcome = execute_job(KEY, MICRO, analytic_surrogates)
        assert not hasattr(outcome, "backend")
        cache = ResultCache(tmp_path / "cache")
        digest = job_digest(KEY, MICRO, surrogate_fingerprint(analytic_surrogates))
        cache.store(digest, outcome, analytic_surrogates)
        assert "backend" not in cache.load_meta(digest)

        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.record(outcome)
        assert "backend" not in RunJournal.read(journal.path)[0]

    def test_pre_backend_sidecar_defaults_to_numpy(
        self, tmp_path, analytic_surrogates
    ):
        # With and without the legacy key, the restored design is the one
        # the job trained.
        cache = ResultCache(tmp_path / "cache")
        digest = job_digest(KEY, MICRO, surrogate_fingerprint(analytic_surrogates))
        outcome = execute_job(KEY, MICRO, analytic_surrogates)
        cache.store(digest, outcome, analytic_surrogates)
        meta = json.loads(cache.meta_path(digest).read_text())
        cache.meta_path(digest).write_text(json.dumps({**meta, "backend": "numpy"}))
        restored = cache.load_outcome(digest)
        restored.params = cache.load_design(digest, analytic_surrogates)
        assert_same_outcome(restored, outcome)


class TestCLI:
    def test_backend_flag_parses(self):
        args = _build_parser().parse_args(["table2", "--mc-shards", "2"])
        assert args.mc_shards == 2
        assert not hasattr(args, "backend")

    def test_backend_defaults_to_numpy(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["table2", "--help"])
        assert "--backend" not in capsys.readouterr().out

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["table2", "--backend", "gpu"])
        assert "--backend" in capsys.readouterr().err
