"""The MC evaluator's per-evaluation plan and its inverter-row skip.

:class:`~repro.core.evaluation.EvalDriver` does the per-sample work of an
evaluation once (effective θ, routing, weights, every circuit η) and runs
the negative-weight circuit only on the crossbar rows that some sample
routes negatively.  The unrouted columns of the inverted buffer hold 0.0
and meet weights that are exactly +0.0, so every voltage stays bitwise
equal to :func:`repro.core.kernels.network_forward`.  Every equality here
is ``assert_array_equal``; never ``allclose``.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import telemetry
from repro.core import (
    PrintedNeuralNetwork,
    evaluate_mc,
    evaluate_mc_sharded,
    kernels,
    snapshot_params,
)
from repro.core.evaluation import (
    EvalDriver,
    EvalPlan,
    _resolve_variation,
    draw_variation_samples,
)
from repro.core.params import LayerParams
from repro.core.variation import Perturbation, VariationModel
from repro.telemetry import read_events

N_TEST = 23
SIZES = (5, 4, 3)


def _base_params(surrogates, per_neuron=False):
    pnn = PrintedNeuralNetwork(
        list(SIZES), surrogates, per_neuron_activation=per_neuron,
        rng=np.random.default_rng(5),
    )
    return snapshot_params(pnn)


def _with_thetas(params, thetas):
    layers = tuple(replace(layer, theta=theta)
                   for layer, theta in zip(params.layers, thetas))
    return replace(params, layers=layers)


def _design(surrogates, kind):
    """A design whose θ signs put the row skip at one of its edges."""
    params = _base_params(surrogates, per_neuron=kind == "per-neuron")
    thetas = [np.abs(layer.theta) for layer in params.layers]
    if kind == "k0":
        # No negative conductance anywhere: zero inverter rows.
        pass
    elif kind == "all-negative":
        thetas = [-t for t in thetas]
    elif kind == "zero-entries":
        # Exact zeros route positively; one negative row per layer.
        for t in thetas:
            t[::2, 0] = 0.0
            t[1, :] *= -1.0
    elif kind == "k0-layer":
        # Only the output layer has negative conductances.
        thetas[1][0, 1] *= -1.0
    elif kind == "per-row-negation":
        # One negation circuit per crossbar row: η's circuit axis is
        # sliced to the inverter rows.
        thetas[0][[0, 3], 1] *= -1.0
        thetas[1][2, :] *= -1.0
        layers = []
        for layer, theta in zip(params.layers, thetas):
            omega = np.repeat(layer.neg_omega, theta.shape[0], axis=0)
            omega *= np.linspace(0.9, 1.1, theta.shape[0])[:, None]
            layers.append(LayerParams(theta, layer.act_omega, omega,
                                      layer.apply_activation))
        return replace(params, layers=tuple(layers))
    else:
        # The nominal mixed-sign design (and its per-neuron variant).
        return params
    return _with_thetas(params, thetas)


DESIGNS = ("mixed", "per-neuron", "k0", "all-negative", "zero-entries",
           "k0-layer", "per-row-negation")


def _stuck_at_zero_negative(params, n_test, seed=0):
    """Stuck-at draws pinning some *negative* devices to exactly 0."""
    rng = np.random.default_rng(seed)
    variation = VariationModel(0.1, seed=seed)
    draws = []
    for layer in params.layers:
        theta, act, neg = kernels.sample_layer_epsilons(variation, n_test, layer)
        negative = np.broadcast_to(layer.theta < 0, theta.shape)
        mask = negative & (rng.random(theta.shape) < 0.5)
        mask[0] = layer.theta < 0          # sample 0: every negative device
        value = np.where(rng.random(theta.shape) < 0.5, 0.0, 0.3)
        draws.append((Perturbation(theta, mask, value), act, neg))
    return draws


def _pin_negative_rows_to_zero(params, n_test, keep_row):
    """Draws sticking every negative device at 0, except row ``keep_row``."""
    draws = []
    for layer in params.layers:
        shape = (n_test, *layer.theta.shape)
        mask = np.broadcast_to(layer.theta < 0, shape).copy()
        if keep_row is not None:
            mask[:, keep_row, :] = False
        draws.append((Perturbation(np.ones(shape), mask, np.zeros(shape)), None, None))
    return draws


def _draws(params, scenario, n_test=N_TEST):
    if scenario == "stuck-zero":
        return _stuck_at_zero_negative(params, n_test)
    return draw_variation_samples(
        params, _resolve_variation(0.1, 4, scenario), n_test
    )


def _chunk(epsilons, lo, hi):
    return [tuple(eps[lo:hi] for eps in triple) for triple in epsilons]


@pytest.fixture
def x():
    return np.random.default_rng(11).uniform(0.0, 1.0, (17, SIZES[0]))


class TestRowSkipBitwise:
    @pytest.mark.parametrize("scenario", ["default", "stuck-1pct", "stuck-zero"])
    @pytest.mark.parametrize("design", DESIGNS)
    def test_plan_chunks_match_network_forward(
        self, analytic_surrogates, workspace_fill, x, design, scenario
    ):
        params = _design(analytic_surrogates, design)
        epsilons = _draws(params, scenario)
        driver = EvalDriver(params, x)
        plan = driver.plan(epsilons)
        for batch_mc in (1, 7, 20, N_TEST):
            for lo in range(0, N_TEST, batch_mc):
                hi = min(lo + batch_mc, N_TEST)
                reference = kernels.network_forward(
                    params, x, epsilons=_chunk(epsilons, lo, hi)
                )
                assert_array_equal(driver.forward(plan.chunk(lo, hi)), reference)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_nominal_matches_network_forward(self, analytic_surrogates, x, design):
        params = _design(analytic_surrogates, design)
        assert_array_equal(EvalDriver(params, x).forward(),
                           kernels.network_forward(params, x))

    def test_mlp_surrogate_eta_span_matches_chunks(self, tiny_bundle, x):
        # The MLP η runs once over the whole span instead of per chunk.
        pnn = PrintedNeuralNetwork(list(SIZES), tiny_bundle,
                                   rng=np.random.default_rng(3))
        params = snapshot_params(pnn)
        epsilons = _draws(params, "stuck-1pct", n_test=40)
        driver = EvalDriver(params, x)
        plan = driver.plan(epsilons)
        for lo in range(0, 40, 7):
            hi = min(lo + 7, 40)
            reference = kernels.network_forward(
                params, x, epsilons=_chunk(epsilons, lo, hi)
            )
            assert_array_equal(driver.forward(plan.chunk(lo, hi)), reference)

    @pytest.mark.parametrize("scenario", ["default", "stuck-1pct"])
    @pytest.mark.parametrize("design", DESIGNS)
    def test_accuracies_match_oracle(self, analytic_surrogates, x, design, scenario):
        # 60 samples: three whole ε blocks, so shards=3 really splits.
        params = _design(analytic_surrogates, design)
        y = np.random.default_rng(12).integers(0, SIZES[-1], x.shape[0])
        epsilons = _draws(params, scenario, n_test=60)
        oracle = np.mean(kernels.predict(params, x, epsilons=epsilons) == y, axis=1)
        for batch_mc in (1, 7, 20, 60):
            serial = evaluate_mc(params, x, y, epsilon=0.1, n_test=60, seed=4,
                                 batch_mc=batch_mc, scenario=scenario)
            assert_array_equal(serial.accuracies, oracle)
        for shards, batch_mc in ((1, None), (3, 7)):
            sharded = evaluate_mc_sharded(params, x, y, epsilon=0.1, n_test=60,
                                          seed=4, scenario=scenario, shards=shards,
                                          batch_mc=batch_mc)
            assert_array_equal(sharded.accuracies, oracle)


class TestPlanRows:
    def test_row_sets_follow_effective_theta(self, analytic_surrogates, x):
        k0 = EvalDriver(_design(analytic_surrogates, "k0"), x).plan()
        assert k0.row_counts() == {"inverter_rows": [0, 0],
                                   "routable_rows": [SIZES[0] + 1, SIZES[1] + 1]}
        every = EvalDriver(_design(analytic_surrogates, "all-negative"), x).plan()
        # Every row but the ground row routes through the inverter.
        assert every.row_counts()["inverter_rows"] == [SIZES[0] + 1, SIZES[1] + 1]
        one = EvalDriver(_design(analytic_surrogates, "k0-layer"), x).plan()
        assert one.row_counts()["inverter_rows"] == [0, 1]

    def test_stuck_at_zero_routes_positive(self, analytic_surrogates, x):
        # A negative device stuck at 0 becomes -0.0, which routes
        # positively: the row needs no inverter once every sample pins it.
        params = _design(analytic_surrogates, "k0-layer")
        draws = _pin_negative_rows_to_zero(params, n_test=2, keep_row=None)
        plan = EvalDriver(params, x).plan(draws)
        assert plan.row_counts()["inverter_rows"] == [0, 0]
        assert_array_equal(EvalDriver(params, x).forward(draws),
                           kernels.network_forward(params, x, epsilons=draws))

    def test_new_plan_rezeroes_inverted_columns(self, analytic_surrogates, x):
        # A driver reused across plans with different row sets (the shard
        # cache does this) must not leak a previous plan's inverter values.
        params = _design(analytic_surrogates, "all-negative")
        driver = EvalDriver(params, x)
        wide = driver.plan(_draws(params, "default"))
        driver.forward(wide.chunk(0, 7))
        draws = _pin_negative_rows_to_zero(params, n_test=7, keep_row=0)
        narrow = driver.plan(draws)
        assert narrow.row_counts()["inverter_rows"] == [1, 1]
        assert_array_equal(driver.forward(narrow),
                           kernels.network_forward(params, x, epsilons=draws))


class TestNonFiniteInputs:
    @pytest.fixture
    def setup(self, analytic_surrogates, x):
        params = _design(analytic_surrogates, "mixed")
        y = np.zeros(x.shape[0], dtype=np.int64)
        return params, x, y

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_nonfinite_x_raises(self, setup, bad, sharded, epsilon):
        params, x, y = setup
        x = x.copy()
        x[3, 2] = bad
        evaluate = evaluate_mc_sharded if sharded else evaluate_mc
        kwargs = {"shards": 2} if sharded else {}
        with pytest.raises(ValueError, match="non-finite test input x"):
            evaluate(params, x, y, epsilon=epsilon, n_test=25, seed=1, **kwargs)

    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("field, name", [("act_omega", "activation"),
                                             ("neg_omega", "negative-weight")])
    def test_nonfinite_eta_raises_naming_layer_and_circuit(
        self, setup, sharded, field, name
    ):
        params, x, y = setup
        layers = list(params.layers)
        omega = getattr(layers[1], field).copy()
        omega[0, 0] = np.nan         # a corrupt printable component value
        layers[1] = replace(layers[1], **{field: omega})
        broken = replace(params, layers=tuple(layers))
        evaluate = evaluate_mc_sharded if sharded else evaluate_mc
        kwargs = {"shards": 2} if sharded else {}
        with pytest.raises(ValueError, match=f"layer 1, {name} circuit 0"):
            evaluate(broken, x, y, epsilon=0.1, n_test=25, seed=1, **kwargs)


class TestTelemetry:
    def test_spans_record_inverter_rows(self, analytic_surrogates, x, tmp_path):
        params = _design(analytic_surrogates, "k0-layer")
        y = np.zeros(x.shape[0], dtype=np.int64)
        telemetry.enable(tmp_path)
        try:
            evaluate_mc(params, x, y, epsilon=0.1, n_test=25, seed=1)
            evaluate_mc_sharded(params, x, y, epsilon=0.1, n_test=25, seed=1, shards=2)
        finally:
            telemetry.disable()
        spans = [e for e in read_events(tmp_path) if e["kind"] == "span"
                 and e["name"] in ("mc.evaluate", "mc.shard")]
        assert sorted(e["name"] for e in spans) == ["mc.evaluate", "mc.shard", "mc.shard"]
        for span in spans:
            assert span["attrs"]["inverter_rows"] == [0, 1]
            assert span["attrs"]["routable_rows"] == [SIZES[0] + 1, SIZES[1] + 1]

    def test_disabled_telemetry_records_nothing(self, analytic_surrogates, x, monkeypatch):
        calls = []
        original = EvalPlan.row_counts
        monkeypatch.setattr(EvalPlan, "row_counts",
                            lambda self: calls.append(1) or original(self))
        params = _design(analytic_surrogates, "mixed")
        y = np.zeros(x.shape[0], dtype=np.int64)
        evaluate_mc(params, x, y, epsilon=0.1, n_test=25, seed=1)
        evaluate_mc_sharded(params, x, y, epsilon=0.1, n_test=25, seed=1, shards=2)
        assert calls == []
