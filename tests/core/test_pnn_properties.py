"""Property-based invariants of the printed network forward pass."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.core import PrintedNeuralNetwork, VariationModel
from repro.core.grad_kernels import Workspace, augment_into, crossbar_fwd, transfer_fwd
from repro.surrogate import AnalyticSurrogate

SURROGATES = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


def build_pnn(n_in, n_hidden, n_out, seed):
    return PrintedNeuralNetwork(
        [n_in, n_hidden, n_out], SURROGATES, rng=np.random.default_rng(seed)
    )


class TestForwardInvariants:
    @given(
        n_in=st.integers(1, 6),
        n_out=st.integers(2, 4),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_outputs_finite_and_rail_bounded(self, n_in, n_out, seed):
        """Activation outputs are η1 ± η2 — within ±2 V of the rails."""
        pnn = build_pnn(n_in, 3, n_out, seed)
        x = np.random.default_rng(seed).uniform(size=(8, n_in))
        out = pnn.forward(x).data
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= 2.0)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_all_zero_column_stays_finite(self, seed):
        """A column whose conductances all snap to zero must not blow up."""
        pnn = build_pnn(3, 3, 2, seed)
        pnn.layers[0].theta.data[:, 0] = 1e-9   # below the printable floor
        out = pnn.forward(np.random.default_rng(seed).uniform(size=(4, 3))).data
        assert np.all(np.isfinite(out))

    @given(seed=st.integers(0, 30), epsilon=st.sampled_from([0.05, 0.1, 0.2]))
    @settings(max_examples=15, deadline=None)
    def test_variation_forward_finite(self, seed, epsilon):
        pnn = build_pnn(3, 3, 2, seed)
        out = pnn.forward(
            np.random.default_rng(seed).uniform(size=(5, 3)),
            variation=VariationModel(epsilon, seed=seed),
            n_mc=4,
        ).data
        assert np.all(np.isfinite(out))

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_forward_deterministic_without_variation(self, seed):
        pnn = build_pnn(2, 3, 2, seed)
        x = np.random.default_rng(seed).uniform(size=(6, 2))
        assert np.array_equal(pnn.forward(x).data, pnn.forward(x).data)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_batch_rows_independent(self, seed):
        """Each row's output must not depend on the rest of the batch."""
        pnn = build_pnn(2, 3, 2, seed)
        x = np.random.default_rng(seed).uniform(size=(5, 2))
        full = pnn.forward(x).data[0]
        single = pnn.forward(x[2:3]).data[0, 0]
        assert np.allclose(full[2], single)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_crossbar_output_convex_for_positive_theta(self, seed):
        """With all-positive θ, V_z is a convex combination of inputs ∪ {0, 1}."""
        pnn = build_pnn(3, 3, 2, seed)
        layer = pnn.layers[0]
        layer.theta.data = np.abs(layer.theta.data)
        layer.apply_activation = False
        x = np.random.default_rng(seed).uniform(size=(1, 7, 3))
        v_z = layer.forward(Tensor(x)).data
        assert np.all(v_z >= -1e-9)
        assert np.all(v_z <= 1.0 + 1e-9)

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_gradients_finite(self, seed):
        pnn = build_pnn(3, 3, 2, seed)
        out = pnn.forward(np.random.default_rng(seed).uniform(size=(6, 3)))
        out.sum().backward()
        for _, param in pnn.named_parameters():
            assert param.grad is not None
            assert np.all(np.isfinite(param.grad))


def _arrays(draw, shape, low, high):
    values = draw(st.lists(
        st.floats(low, high, allow_nan=False, allow_infinity=False),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
    ))
    return np.asarray(values, dtype=np.float64).reshape(shape)


class TestCircuitEquationProperties:
    """Eq. 1 and Eq. 2 invariants, on the production Workspace kernels."""

    @given(data=st.data(), n_mc=st.integers(1, 3), batch=st.integers(1, 4),
           n_in=st.integers(1, 4), n_out=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_crossbar_output_is_convex_combination(
        self, data, n_mc, batch, n_in, n_out
    ):
        """Eq. 1 output lies within its direct inputs, inverted inputs,
        the 1 V bias and the 0 V ground: it is a convex combination of
        them (the 1e-12 in the denominator only pulls it towards 0 V)."""
        hidden = _arrays(data.draw, (n_mc, batch, n_in), -2.0, 2.0)
        x_aug = augment_into(np.empty((n_mc, batch, n_in + 2)), hidden)
        inverted = _arrays(data.draw, x_aug.shape, -2.0, 2.0)
        theta = _arrays(data.draw, (n_mc, n_in + 2, n_out), -1.0, 1.0)
        out, _ = crossbar_fwd(x_aug, inverted, theta, ws=Workspace())
        # x_aug carries the 1 V bias and 0 V ground columns itself.
        sources = np.concatenate([x_aug, inverted], axis=-1)
        low = sources.min(axis=-1, keepdims=True)
        high = sources.max(axis=-1, keepdims=True)
        slack = 1e-12 * np.maximum(1.0, np.abs(sources).max())
        assert np.all(out >= low - slack)
        assert np.all(out <= high + slack)

    @given(data=st.data(), n_mc=st.integers(1, 3), n_circuits=st.integers(1, 3),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=60, deadline=None)
    def test_ptanh_transfer_monotone_when_eta2_eta4_positive(
        self, data, n_mc, n_circuits, sign
    ):
        """Eq. 2 is non-decreasing in voltage whenever η2·η4 > 0."""
        eta = _arrays(data.draw, (n_mc, n_circuits, 4), -2.0, 2.0)
        eta[..., 1] = sign * _arrays(data.draw, (n_mc, n_circuits), 1e-3, 2.0)
        eta[..., 3] = sign * _arrays(data.draw, (n_mc, n_circuits), 1e-3, 50.0)
        grid = np.sort(_arrays(data.draw, (64,), -1.0, 2.0))
        voltage = np.broadcast_to(grid[None, :, None], (n_mc, 64, n_circuits))
        out, _ = transfer_fwd(voltage, eta, "ptanh", ws=Workspace())
        assert np.all(np.diff(out, axis=1) >= 0.0)
