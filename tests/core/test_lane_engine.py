"""Lane-batched lockstep training vs serial kernel runs, bit for bit.

These tests pin the lane engine's central contract (see
``docs/TRAINING.md``): lane ``l`` of ``train_pnn_lanes`` reproduces the
serial ``train_pnn(engine="kernel")`` run for the same seed **bitwise** —
the exact per-epoch ``(train_loss, val_loss)`` history (``==``, no
tolerance), the exact early-stop epoch, and byte-identical trained
parameters — including when lanes early-stop at different epochs and the
active stack shrinks mid-run.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn, train_pnn_lanes
from repro.core.aging import AgingModel
from repro.core.grad_kernels import KernelNetwork
from repro.core.lanes import LaneNetwork, stack_epsilons
from repro.core.training import draw_epoch_epsilons
from repro.core.variation import VariationModel

SEEDS = (1, 2, 3)


def make_pnn(surrogates, seed, per_neuron=False):
    return PrintedNeuralNetwork(
        [2, 3, 2],
        surrogates,
        per_neuron_activation=per_neuron,
        rng=np.random.default_rng(seed),
    )


def make_config(seed, **overrides):
    defaults = dict(
        max_epochs=25, patience=25, epsilon=0.1, n_mc_train=5,
        learnable_nonlinear=True, loss="margin",
    )
    defaults.update(overrides)
    return TrainConfig(seed=seed, **defaults)


def run_serial(surrogates, blob_data, configs, per_neuron=False):
    x_train, y_train, x_val, y_val = blob_data
    results, states = [], []
    for config in configs:
        pnn = make_pnn(surrogates, config.seed, per_neuron)
        results.append(
            train_pnn(pnn, x_train, y_train, x_val, y_val, config, engine="kernel")
        )
        states.append(pnn.state_dict())
    return results, states


def run_lanes(surrogates, blob_data, configs, per_neuron=False):
    x_train, y_train, x_val, y_val = blob_data
    pnns = [make_pnn(surrogates, config.seed, per_neuron) for config in configs]
    results = train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs)
    return results, [pnn.state_dict() for pnn in pnns]


def assert_bitwise_equal(serial, lanes):
    serial_results, serial_states = serial
    lane_results, lane_states = lanes
    assert len(serial_results) == len(lane_results)
    for s, l in zip(serial_results, lane_results):
        assert l.history == s.history          # exact float equality, per epoch
        assert l.best_epoch == s.best_epoch
        assert l.epochs_run == s.epochs_run
        assert l.best_val_loss == s.best_val_loss
    for s, l in zip(serial_states, lane_states):
        assert s.keys() == l.keys()
        for name in s:
            np.testing.assert_array_equal(l[name], s[name], err_msg=name)


@pytest.mark.slow
class TestLaneBitIdentity:
    """The property grid: surrogate family × activation mode × loss × ϵ."""

    @pytest.mark.parametrize(
        "per_neuron,loss,epsilon,learnable",
        [
            (False, "margin", 0.1, True),
            (True, "margin", 0.1, True),
            (False, "ce", 0.1, True),
            (True, "ce", 0.1, False),
            (False, "margin", 0.0, True),
        ],
    )
    def test_analytic_lanes_bitwise_equal_serial(
        self, analytic_surrogates, blob_data, per_neuron, loss, epsilon, learnable
    ):
        configs = [
            make_config(seed, loss=loss, epsilon=epsilon, learnable_nonlinear=learnable)
            for seed in SEEDS
        ]
        assert_bitwise_equal(
            run_serial(analytic_surrogates, blob_data, configs, per_neuron),
            run_lanes(analytic_surrogates, blob_data, configs, per_neuron),
        )

    @pytest.mark.parametrize(
        "per_neuron,loss",
        [(False, "margin"), (True, "ce")],
    )
    def test_mlp_surrogate_lanes_bitwise_equal_serial(
        self, tiny_bundle, blob_data, per_neuron, loss
    ):
        configs = [make_config(seed, loss=loss, max_epochs=15) for seed in SEEDS]
        assert_bitwise_equal(
            run_serial(tiny_bundle, blob_data, configs, per_neuron),
            run_lanes(tiny_bundle, blob_data, configs, per_neuron),
        )

    def test_staggered_early_stops(self, analytic_surrogates, blob_data):
        """Lanes stopping at different epochs shrink the stack mid-run and
        still finish bitwise equal to their serial counterparts."""
        configs = [
            make_config(seed, max_epochs=120, patience=5, loss="ce") for seed in SEEDS
        ]
        serial = run_serial(analytic_surrogates, blob_data, configs)
        lanes = run_lanes(analytic_surrogates, blob_data, configs)
        assert_bitwise_equal(serial, lanes)
        epochs = {result.epochs_run for result in serial[0]}
        assert len(epochs) > 1, (
            "fixture regression: staggered-stop test needs lanes stopping at "
            f"different epochs, got {epochs}"
        )

    def test_gather_invariance(self, analytic_surrogates, blob_data):
        """A lane's result must not depend on its stack mates."""
        configs = [make_config(seed, max_epochs=20) for seed in SEEDS]
        full = run_lanes(analytic_surrogates, blob_data, configs)
        pair = run_lanes(analytic_surrogates, blob_data, configs[:2])
        assert_bitwise_equal(
            (full[0][:2], full[1][:2]),
            pair,
        )

    def test_single_lane_equals_serial(self, analytic_surrogates, blob_data):
        configs = [make_config(7, max_epochs=15)]
        assert_bitwise_equal(
            run_serial(analytic_surrogates, blob_data, configs),
            run_lanes(analytic_surrogates, blob_data, configs),
        )


@pytest.mark.slow
class TestMixedEpsilonLanes:
    """Lanes at different training ε share one stack, bit for bit.

    The serial side is ``train_pnn(engine="kernel")`` — the engine
    ``execute_job`` runs.  Short patience staggers the stops, so the stack
    compacts mid-run and every reused η chain must be dropped with it.
    """

    @pytest.mark.parametrize("scenario", ["default", "stuck-1pct"])
    @pytest.mark.parametrize("learnable", [False, True])
    def test_mixed_epsilon_batch_bitwise_equal_serial(
        self, analytic_surrogates, blob_data, learnable, scenario
    ):
        configs = [
            make_config(seed, epsilon=eps, learnable_nonlinear=learnable,
                        scenario=scenario, max_epochs=120, patience=5, loss="ce")
            for seed in SEEDS for eps in (0.05, 0.1)
        ]
        serial = run_serial(analytic_surrogates, blob_data, configs)
        assert_bitwise_equal(serial, run_lanes(analytic_surrogates, blob_data, configs))
        epochs = [result.epochs_run for result in serial[0]]
        assert min(epochs) < max(epochs), (
            f"fixture regression: no lane stopped before the others ({epochs})"
        )


class TestEtaChainReuse:
    """Each η chain is computed once per distinct (𝔴, ε) pair."""

    @staticmethod
    def _traced_run(tmp_path, surrogates, blob_data, configs):
        telemetry.enable(tmp_path / "tel")
        try:
            results = run_lanes(surrogates, blob_data, configs)
        finally:
            telemetry.disable()
        events = [e for e in telemetry.read_events(tmp_path / "tel")
                  if e["kind"] == "event"]
        (run,) = [e["attrs"] for e in events if e["name"] == "lanes.run"]
        compactions = sum(1 for e in events
                          if e["name"] == "lanes.shrink" and e["attrs"]["active"] > 0)
        return results, run, compactions

    @pytest.mark.parametrize("learnable", [False, True])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_chain_counts(self, tmp_path, analytic_surrogates, blob_data, learnable, epsilon):
        configs = [
            make_config(seed, epsilon=epsilon, learnable_nonlinear=learnable,
                        max_epochs=120, patience=5, loss="ce")
            for seed in SEEDS
        ]
        results, run, k = self._traced_run(tmp_path, analytic_surrogates, blob_data, configs)
        net = KernelNetwork.from_pnn(make_pnn(analytic_surrogates, 0))
        per_pass = sum(1 + meta.apply_activation for meta in net.layers)
        epochs = run["epochs_run"]
        assert epochs == max(result.epochs_run for result in results[0])
        assert k > 0, "fixture regression: the stack never compacted mid-run"
        if not learnable and epsilon > 0:
            # Fresh training ε every epoch; the validation chains once per
            # compaction.
            computed = per_pass * epochs + per_pass * (1 + k)
        elif not learnable:
            # Nominal training and validation share one chain per compaction.
            computed = per_pass * (1 + k)
        elif epsilon > 0:
            computed = 2 * per_pass * epochs
        else:
            # Validation at epoch e and training at e + 1 see the same 𝔴.
            computed = per_pass * (1 + epochs + k)
        assert run["eta_chains_computed"] == computed
        assert run["eta_chains_reused"] == 2 * per_pass * epochs - computed

    def test_keyed_arrays_are_read_only(self, analytic_surrogates, blob_data):
        _, _, x_val, y_val = blob_data
        pnns = [make_pnn(analytic_surrogates, seed) for seed in SEEDS]
        lanes = LaneNetwork.from_pnns(pnns)
        arrays = LaneNetwork.stack_arrays(pnns)
        epsilons = stack_epsilons([
            draw_epoch_epsilons(VariationModel(0.1, seed=seed), 5, pnns[0])
            for seed in SEEDS
        ])
        before = lanes.loss_values(arrays, x_val, y_val, epsilons=epsilons)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][2][...] = 0.0                   # 𝔴_neg of layer 0
        with pytest.raises(ValueError, match="read-only"):
            epsilons[1][1] *= 2.0                     # ε_act of layer 1
        arrays[0][0][...] = arrays[0][0]              # θ keys no chain
        np.testing.assert_array_equal(
            lanes.loss_values(arrays, x_val, y_val, epsilons=epsilons), before
        )


class TestTelemetryNeutral:
    def test_telemetry_on_equals_off(self, tmp_path, analytic_surrogates, blob_data):
        configs = [make_config(seed, max_epochs=40, patience=5) for seed in SEEDS]
        off = run_lanes(analytic_surrogates, blob_data, configs)
        on, _, _ = TestEtaChainReuse._traced_run(
            tmp_path, analytic_surrogates, blob_data, configs
        )
        assert_bitwise_equal(off, on)


class TestLaneEngineDispatch:
    def test_engine_lanes_matches_engine_kernel(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        config = make_config(4, max_epochs=10)
        reference = make_pnn(analytic_surrogates, 4)
        ref_result = train_pnn(
            reference, x_train, y_train, x_val, y_val, config, engine="kernel"
        )
        pnn = make_pnn(analytic_surrogates, 4)
        result = train_pnn(
            pnn, x_train, y_train, x_val, y_val, config, engine="lanes"
        )
        assert result.history == ref_result.history
        assert result.best_epoch == ref_result.best_epoch
        for name, value in reference.state_dict().items():
            np.testing.assert_array_equal(pnn.state_dict()[name], value)

    def test_engine_lanes_rejects_variation_overrides(
        self, analytic_surrogates, blob_data
    ):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates, 0)
        aging = AgingModel(drift_rate=0.05, time_horizon=2.0, seed=9)
        with pytest.raises(ValueError, match="variation"):
            train_pnn(
                pnn, x_train, y_train, x_val, y_val,
                TrainConfig(max_epochs=2), variation=aging, engine="lanes",
            )


class TestLaneValidation:
    def test_mismatched_configs_rejected(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data

        def train(configs):
            pnns = [make_pnn(analytic_surrogates, config.seed) for config in configs]
            return train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs)

        # Lanes may differ in ε: each owns its variation models.
        assert len(train([make_config(1, max_epochs=2),
                          make_config(2, max_epochs=2, epsilon=0.2)])) == 2
        with pytest.raises(ValueError, match="learnable_nonlinear"):
            train([make_config(1), make_config(2, learnable_nonlinear=False)])
        with pytest.raises(ValueError, match="samples variation"):
            train([make_config(1), make_config(2, epsilon=0.0)])
        with pytest.raises(ValueError, match="scenario"):
            train([make_config(1), make_config(2, scenario="stuck-1pct")])

    def test_config_count_mismatch_rejected(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnns = [make_pnn(analytic_surrogates, seed) for seed in (1, 2)]
        with pytest.raises(ValueError, match="config"):
            train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, [make_config(1)])

    def test_mismatched_topologies_rejected(self, analytic_surrogates):
        a = make_pnn(analytic_surrogates, 1)
        b = PrintedNeuralNetwork(
            [2, 4, 2], analytic_surrogates, rng=np.random.default_rng(2)
        )
        with pytest.raises(ValueError, match="layer sizes"):
            LaneNetwork.from_pnns([a, b])

    def test_mismatched_surrogate_objects_rejected(self, analytic_surrogates):
        from repro.surrogate.analytic import AnalyticSurrogate

        a = make_pnn(analytic_surrogates, 1)
        b = make_pnn((AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight")), 2)
        with pytest.raises(ValueError, match="surrogate"):
            LaneNetwork.from_pnns([a, b])

    def test_empty_lane_list_returns_empty(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        assert train_pnn_lanes([], x_train, y_train, x_val, y_val, []) == []
