"""One executor: the Workspace (``out=``) kernels, pinned bitwise.

Training and MC evaluation used to choose between an allocating ``numpy``
backend and a preallocated-scratch ``fused`` one.  The fused kernels are
now the only executor, and this module holds them to the numbers the
allocating reference produced: MC evaluation against the generic
:mod:`repro.core.kernels` forward, training against trajectories recorded
on the allocating backend before it was removed.  Every check is
``assert_array_equal`` / ``==`` — never ``allclose``.  The class and test
names are those of the backend-registry suite these checks replace.
"""

import hashlib
import inspect
import subprocess
import sys

import numpy as np
import pytest

import repro.core
from repro.core import (
    PrintedNeuralNetwork,
    TrainConfig,
    evaluate_mc,
    evaluate_mc_sharded,
    kernels,
    snapshot_params,
    train_pnn,
    train_pnn_lanes,
)
from repro.core.evaluation import EvalDriver, draw_variation_samples
from repro.core.grad_kernels import KernelNetwork
from repro.core.lanes import LaneNetwork
from repro.core.variation import VariationModel, build_scenario_model
from repro.experiments import execute_job, execute_job_lanes, run_table2_parallel

# Recorded on the allocating "numpy" backend (the former default) before
# its removal: [2, 3, 2] analytic network on ``blob_data``, float.hex()
# per-epoch (train, val) losses and a SHA-256 over the sorted final state.
SERIAL = {
    "history": [
        ("0x1.2fb876055a584p-3", "0x1.1aad351a617c3p-4"),
        ("0x1.a1a9f5766e711p-4", "0x1.2018dbd759ef4p-4"),
        ("0x1.5de9d714df8f5p-4", "0x1.7eb50179b6dc3p-4"),
        ("0x1.7f7c82f35eabap-4", "0x1.91a3e48ed4742p-4"),
        ("0x1.85b0d0087b35cp-4", "0x1.83986eaf87aecp-4"),
        ("0x1.7bbf492b08011p-4", "0x1.6a2dd8145c65cp-4"),
        ("0x1.6d653e98d8a51p-4", "0x1.5093c08c9a3c9p-4"),
        ("0x1.5ddd96b033ab1p-4", "0x1.3adf64ac2775ep-4"),
        ("0x1.5278ee43b8a32p-4", "0x1.26b2c0529cef2p-4"),
        ("0x1.4d09645e4241bp-4", "0x1.1461009b477d1p-4"),
        ("0x1.3fc59a1c5637dp-4", "0x1.03d881d4d7aabp-4"),
        ("0x1.389e087a3276ap-4", "0x1.eb03ea05ba862p-5"),
        ("0x1.363976168f702p-4", "0x1.d41761274fffep-5"),
        ("0x1.33e80afd85916p-4", "0x1.c36a61ce5e323p-5"),
        ("0x1.30e035330b73ep-4", "0x1.b8840105feb03p-5"),
    ],
    "best_epoch": 14,
    "state_sha256": "1bdb4a35393d51b49f9ff37c334edbcbf6cdd3ee1bb73c326f94886ec7bdc9b3",
}
LANES = (
    {
        "history": [
            ("0x1.57acf1556118ep-4", "0x1.8020815b2d76ep-4"),
            ("0x1.199718279989ep-4", "0x1.665137356d3eep-4"),
            ("0x1.da2956246b330p-5", "0x1.fd49ae2b210e6p-5"),
            ("0x1.8320abd43f4b8p-5", "0x1.729a75f792405p-5"),
            ("0x1.0a688c348709ap-5", "0x1.3356ed1e83059p-5"),
            ("0x1.a9b47d39bc9dbp-6", "0x1.e6546b1596f7ap-6"),
            ("0x1.4faeed3f69732p-6", "0x1.313713e2e3666p-6"),
            ("0x1.860338926e8a2p-7", "0x1.0c4f6fed6d622p-6"),
            ("0x1.6e8c02fcfaca2p-7", "0x1.090f645e2d340p-5"),
            ("0x1.99bda899c5c4bp-7", "0x1.06e041399e99ap-6"),
            ("0x1.790929d61f766p-7", "0x1.ca23359d36ceap-7"),
            ("0x1.f0cfca84b46e3p-7", "0x1.4d22ab8462bd7p-6"),
        ],
        "best_epoch": 10,
        "state_sha256": "45b408621348a80fa65be92506bead84249bb8009731211e254bbe269d5fdf6e",
    },
    {
        "history": [
            ("0x1.9374d3b6b876dp-4", "0x1.3e74189939832p-4"),
            ("0x1.ab45e1eb0f378p-4", "0x1.31459b11a83dbp-4"),
            ("0x1.622e89fa2f78bp-4", "0x1.44a2c99e02eeap-4"),
            ("0x1.36e83b4ba7c2ep-4", "0x1.52cf0a1e37d4ap-4"),
            ("0x1.1de18a1f178f2p-4", "0x1.26c2a87d46a4ap-4"),
            ("0x1.00063d3f4af47p-4", "0x1.1147bb54f9c9dp-4"),
            ("0x1.e9721194a6c98p-5", "0x1.fccd32651f522p-5"),
            ("0x1.b0d97f0d2e262p-5", "0x1.038e06429ca5bp-4"),
            ("0x1.9171ac906bd0dp-5", "0x1.e1545a06bd840p-5"),
            ("0x1.7c99e1c26d6bfp-5", "0x1.aa45c92e6e1ddp-5"),
            ("0x1.588ac2d2f7826p-5", "0x1.87cfb33fce956p-5"),
            ("0x1.1ceba046a3996p-5", "0x1.6afcdf51825efp-5"),
        ],
        "best_epoch": 11,
        "state_sha256": "fb0636075a4fe519bf1e91c22e1bc00c0f36c36aa91471395a08cf5f36bc2bb4",
    },
)


def make_pnn(surrogates, per_neuron=False, sizes=(4, 3, 3), seed=7):
    pnn = PrintedNeuralNetwork(
        list(sizes), surrogates, per_neuron_activation=per_neuron,
        rng=np.random.default_rng(seed),
    )
    nudge = np.random.default_rng(1)
    for param in pnn.parameters():
        param.data = param.data + 0.05 * nudge.standard_normal(param.data.shape)
    return pnn


def state_sha256(pnn) -> str:
    digest = hashlib.sha256()
    state = pnn.state_dict()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name], dtype=np.float64).tobytes())
    return digest.hexdigest()


def assert_matches_recording(pnn, result, recorded):
    history = [(train.hex(), val.hex()) for _, train, val in result.history]
    assert history == recorded["history"]
    assert result.best_epoch == recorded["best_epoch"]
    assert state_sha256(pnn) == recorded["state_sha256"]


class TestRegistry:
    """The backend registry and its numba tier are gone for good."""

    def test_registered_names_and_default(self):
        for name in ("Backend", "DEFAULT_BACKEND", "backend_names", "get_backend",
                     "numba_version"):
            assert not hasattr(repro.core, name)
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.core.backends")

    def test_get_backend_roundtrip(self):
        # No execution entry point takes an execution-backend argument.
        for entry in (evaluate_mc, evaluate_mc_sharded, run_table2_parallel,
                      execute_job, execute_job_lanes, KernelNetwork.from_pnn,
                      LaneNetwork.from_pnns):
            assert "backend" not in inspect.signature(entry).parameters, entry

    def test_unknown_backend_lists_valid_names(self, capsys):
        from repro.experiments.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["table2", "--backend", "fused"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_numba_never_required(self):
        code = ("import sys, repro.core, repro.experiments; "
                "print('numba' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.core._jit")

    def test_kernel_network_rejects_unknown_backend(self, analytic_surrogates):
        pnn = make_pnn(analytic_surrogates)
        with pytest.raises(TypeError):
            KernelNetwork.from_pnn(pnn, backend="fused")

    def test_train_config_rejects_unknown_backend(self):
        with pytest.raises(TypeError):
            TrainConfig(max_epochs=1, seed=0, backend="fused")


class TestFusedEvalDriver:
    """:class:`EvalDriver` (the former fused driver) vs ``network_forward``."""

    def test_input_validation_matches_reference(self, analytic_surrogates):
        params = snapshot_params(make_pnn(analytic_surrogates))
        for bad, match in ((np.zeros(4), "expected a .batch, features. input"),
                           (np.zeros((5, 3)), "features")):
            with pytest.raises(ValueError, match=match):
                EvalDriver(params, bad)
            with pytest.raises(ValueError, match=match):
                kernels.network_forward(params, bad)

    @pytest.mark.parametrize("scenario", ["gaussian", "stuck-1pct", "correlated"])
    def test_scenario_epsilons_bitwise(self, analytic_surrogates, scenario):
        # stuck-1pct exercises the Perturbation (override-mask) θ path,
        # the others the plain multiplicative path with non-uniform draws.
        params = snapshot_params(make_pnn(analytic_surrogates))
        x = np.random.default_rng(2).uniform(0.0, 1.0, size=(9, 4))
        model = build_scenario_model(scenario, 0.1, seed=3)
        epsilons = draw_variation_samples(params, model, n_test=6)
        driver = EvalDriver(params, x)
        reference = kernels.network_forward(params, x, epsilons=epsilons)
        np.testing.assert_array_equal(driver.forward(epsilons), reference)

    def test_scratch_is_reused_across_chunks(self, analytic_surrogates):
        params = snapshot_params(make_pnn(analytic_surrogates))
        x = np.random.default_rng(4).uniform(0.0, 1.0, size=(9, 4))
        model = VariationModel(0.1, seed=9)
        driver = EvalDriver(params, x)
        driver.forward(draw_variation_samples(params, model, n_test=5))
        stable = driver.workspace.nbytes()
        assert stable > 0
        # Same chunk shape again: not a single new scratch byte.
        driver.forward(draw_variation_samples(params, model, n_test=5))
        assert driver.workspace.nbytes() == stable


class TestTrainingBitwise:
    """Training trajectories equal the allocating backend's recordings."""

    @staticmethod
    def _train(surrogates, blob_data, engine="kernel"):
        x_train, y_train, x_val, y_val = blob_data
        pnn = PrintedNeuralNetwork(
            [2, 3, 2], surrogates, rng=np.random.default_rng(21)
        )
        config = TrainConfig(
            max_epochs=15, patience=15, epsilon=0.05, n_mc_train=3, seed=5,
        )
        result = train_pnn(
            pnn, x_train, y_train, x_val, y_val, config, engine=engine
        )
        return pnn, result

    def test_backend_trajectories_match(
        self, analytic_surrogates, blob_data, workspace_fill
    ):
        pnn, result = self._train(analytic_surrogates, blob_data)
        assert_matches_recording(pnn, result, SERIAL)

    def test_lane_engine_matches(
        self, analytic_surrogates, blob_data, workspace_fill
    ):
        pnn, result = self._train(analytic_surrogates, blob_data, engine="lanes")
        assert_matches_recording(pnn, result, SERIAL)

    def test_lane_stack_trains_bitwise_on_fused(
        self, analytic_surrogates, blob_data
    ):
        x_train, y_train, x_val, y_val = blob_data
        pnns = [
            PrintedNeuralNetwork(
                [2, 3, 2], analytic_surrogates, rng=np.random.default_rng(s)
            )
            for s in (31, 32)
        ]
        configs = [
            TrainConfig(max_epochs=12, patience=12, epsilon=0.05, n_mc_train=2, seed=s)
            for s in (31, 32)
        ]
        results = train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs)
        for pnn, result, recorded in zip(pnns, results, LANES):
            assert_matches_recording(pnn, result, recorded)


def _buffer_ids(workspace):
    return {name: id(buf) for name, buf in workspace._buffers.items()}


class TestBackendPlumbing:
    """Every kernel of every executor runs inside the executor's Workspace."""

    def test_kernel_network_threads_workspace(self, analytic_surrogates):
        pnn = make_pnn(analytic_surrogates)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        x = np.random.default_rng(0).uniform(0, 1, (9, 4))
        y = np.random.default_rng(1).integers(0, 3, 9)
        epsilons = draw_variation_samples(
            snapshot_params(pnn), VariationModel(0.1, seed=2), n_test=4
        )
        net.loss_and_grads(arrays, x, y, epsilons=epsilons)
        net.loss_value(arrays, x, y, epsilons=epsilons)
        names = set(net.workspace._buffers)
        for name in ("train.l0.x_aug", "train.l0.theta", "train.l0.neg.shift",
                     "train.l0.num", "train.l1.act.out", "train.loss.pre",
                     "train.loss.dpre", "bwd.l1.act.du", "bwd.l0.ddf",
                     "bwd.l0.neg.dv", "val.l1.act.out", "val.loss.prod"):
            assert name in names, name
        before = _buffer_ids(net.workspace)
        net.loss_and_grads(arrays, x, y, epsilons=epsilons)
        net.loss_value(arrays, x, y, epsilons=epsilons)
        assert _buffer_ids(net.workspace) == before

    def test_lane_network_threads_workspace(self, analytic_surrogates):
        pnns = [make_pnn(analytic_surrogates, seed=s) for s in (7, 8)]
        lanes = LaneNetwork.from_pnns(pnns)
        arrays = LaneNetwork.stack_arrays(pnns)
        x = np.random.default_rng(0).uniform(0, 1, (9, 4))
        y = np.random.default_rng(1).integers(0, 3, 9)
        lanes.loss_and_grads(arrays, x, y)
        lanes.loss_values(arrays, x, y)
        names = set(lanes.workspace._buffers)
        for name in ("lanes.l0.x_aug", "lanes.l0.neg.tanh", "lanes.l1.num2",
                     "lanes.loss.mask", "lanes.bwd.l0.dmag", "lanes.bwd.l1.act.du",
                     "lanes.val.l1.act.out", "lanes.val.loss.shortfall"):
            assert name in names, name
        before = _buffer_ids(lanes.workspace)
        lanes.loss_and_grads(arrays, x, y)
        lanes.loss_values(arrays, x, y)
        assert _buffer_ids(lanes.workspace) == before

    def test_evaluate_mc_selects_driver_class(
        self, analytic_surrogates, monkeypatch
    ):
        pnn = make_pnn(analytic_surrogates, sizes=(2, 3, 2), seed=3)
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=(8, 2))
        y = np.random.default_rng(1).integers(0, 2, 8)
        seen = []
        original = EvalDriver.forward

        def spy(self, epsilons=None):
            seen.append(type(self).__name__)
            return original(self, epsilons)

        monkeypatch.setattr(EvalDriver, "forward", spy)
        params = snapshot_params(pnn)
        evaluate_mc(params, x, y, epsilon=0.1, n_test=3, seed=2)
        evaluate_mc_sharded(params, x, y, epsilon=0.1, n_test=3, seed=2, shards=2)
        assert len(seen) >= 2 and set(seen) == {"EvalDriver"}
