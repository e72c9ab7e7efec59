"""Surrogate modelling of the nonlinear circuits (Sec. III-A, Fig. 3).

The pipeline mirrors the paper exactly:

1. :mod:`~repro.surrogate.design_space` — the feasible box of Table I with
   its two inequality constraints.
2. :mod:`~repro.surrogate.sampling` — Quasi-Monte-Carlo (Sobol) sampling of
   design points ω, with an in-repo scrambled Sobol generator.
3. :mod:`~repro.surrogate.dataset_builder` — DC sweeps of the ptanh and
   negative-weight circuits for each ω (via :mod:`repro.spice`), followed by
4. :mod:`~repro.surrogate.fitting` — least-squares extraction of the
   auxiliary parameters η of Eq. 2 / Eq. 3 (own Levenberg-Marquardt, with a
   scipy cross-check in the tests).
5. :mod:`~repro.surrogate.features` — ratio extension ω ↦ [ω, k1, k2, k3]
   and min-max normalization.
6. :mod:`~repro.surrogate.model` / :mod:`~repro.surrogate.training` — the
   13-layer regression MLP (10-9-9-8-8-7-7-6-6-6-5-5-5-4) mapping ω̃ to η̃.
7. :mod:`~repro.surrogate.pipeline` — the end-to-end builder with caching;
   returns a :class:`~repro.surrogate.pipeline.SurrogateBundle` holding one
   surrogate per nonlinear circuit type.
"""

from repro.surrogate.design_space import DesignSpace, DESIGN_SPACE
from repro.surrogate.sampling import sample_design_points
from repro.surrogate.fitting import fit_ptanh, fit_ptanh_batch, ptanh_curve, FitResult
from repro.surrogate.features import FeatureNormalizer, extend_with_ratios
from repro.surrogate.model import SurrogateMLP, PAPER_LAYER_WIDTHS
from repro.surrogate.dataset_builder import (
    BuildStats,
    SurrogateDataset,
    build_surrogate_dataset,
)
from repro.surrogate.training import train_surrogate, SurrogateTrainingResult
from repro.surrogate.pipeline import SurrogateBundle, build_surrogate_bundle
from repro.surrogate.analytic import AnalyticSurrogate

__all__ = [
    "DesignSpace",
    "DESIGN_SPACE",
    "sample_design_points",
    "fit_ptanh",
    "fit_ptanh_batch",
    "ptanh_curve",
    "FitResult",
    "BuildStats",
    "FeatureNormalizer",
    "extend_with_ratios",
    "SurrogateMLP",
    "PAPER_LAYER_WIDTHS",
    "SurrogateDataset",
    "build_surrogate_dataset",
    "train_surrogate",
    "SurrogateTrainingResult",
    "SurrogateBundle",
    "build_surrogate_bundle",
    "AnalyticSurrogate",
]
