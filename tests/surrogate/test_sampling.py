"""Sobol QMC sampling of the design space."""

import numpy as np
import pytest

from repro.surrogate import DESIGN_SPACE, sample_design_points


class TestSampling:
    def test_shape_and_feasibility(self):
        omegas = sample_design_points(100, seed=0)
        assert omegas.shape == (100, 7)
        for omega in omegas:
            assert DESIGN_SPACE.contains(omega, atol=1e-9)

    def test_deterministic_given_seed(self):
        a = sample_design_points(32, seed=5)
        b = sample_design_points(32, seed=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_design_points(32, seed=1)
        b = sample_design_points(32, seed=2)
        assert not np.allclose(a, b)

    def test_covers_the_box(self):
        """QMC points should span most of each marginal range."""
        omegas = sample_design_points(512, seed=0)
        spans = (omegas.max(axis=0) - omegas.min(axis=0)) / (
            DESIGN_SPACE.upper - DESIGN_SPACE.lower
        )
        # R2/R4 are products with clipping; the directly-sampled axes
        # (R1, R3, R5, W, L) must cover ≥ 90% of their range.
        for axis in (0, 2, 4, 5, 6):
            assert spans[axis] > 0.9

    def test_low_discrepancy_beats_iid_on_mean_error(self):
        """Sobol means converge faster than pseudo-random means."""
        omegas = sample_design_points(1024, seed=0)
        direct_axes = [0, 2, 4, 5, 6]
        centre = (DESIGN_SPACE.reduced_lower + DESIGN_SPACE.reduced_upper)[:5] / 2.0
        qmc_error = np.abs(omegas[:, direct_axes].mean(axis=0) - centre).max() / centre.max()
        assert qmc_error < 0.01

    def test_single_point(self):
        omegas = sample_design_points(1, seed=0)
        assert omegas.shape == (1, 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sample_design_points(0)


class TestScipyOracle:
    """The in-repo Sobol generator is bitwise equal to ``scipy.stats.qmc``."""

    @pytest.mark.parametrize("scramble", [True, False])
    @pytest.mark.parametrize("n_points", [1, 2, 3, 64, 100, 1024, 4096])
    def test_bitwise_equal_to_scipy(self, n_points, scramble):
        qmc = pytest.importorskip("scipy.stats.qmc")
        exponent = int(np.ceil(np.log2(max(n_points, 2))))
        for seed in range(20):
            unit = qmc.Sobol(d=7, scramble=scramble, seed=seed).random_base2(m=exponent)
            reduced = qmc.scale(
                unit[:n_points], DESIGN_SPACE.reduced_lower, DESIGN_SPACE.reduced_upper
            )
            expected = np.atleast_2d(DESIGN_SPACE.assemble(reduced))
            np.testing.assert_array_equal(
                sample_design_points(n_points, seed=seed, scramble=scramble), expected
            )
