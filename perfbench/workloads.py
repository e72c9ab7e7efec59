"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload runs the same user session through the public entry points:

1. ``surrogate`` -- :func:`repro.surrogate.build_surrogate_bundle` into an
   empty artifacts directory (QMC sampling, SPICE DC sweeps, LM fits, MLP
   training for both circuits);
2. ``table2`` cold -- :func:`repro.experiments.run_table2_parallel` with
   that bundle into an empty result cache, training every job;
3. ``table2`` warm -- the same grid again from the now-full cache at the
   workload's re-evaluation ``n_test``: no training, every design is read
   back and Monte-Carlo tested again.

Both ``table2`` calls verify every selected design closed-loop through the
SPICE engine on 8x8 crossbar tiles (``deploy_tile``).  The workloads differ
in how large each stage is, so each one puts a different layer on the
critical path.  ``workers=1`` and ``mc_shards=1`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

DEPLOY_TILE = (8, 8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    surrogate_points: int       # QMC design points per circuit
    surrogate_epochs: int       # MLP epochs (patience = epochs: no early stop)
    datasets: Tuple[str, ...]
    n_seeds: int                # training seeds per group; > 1 stacks lanes
    epochs: int                 # pNN epochs (patience = epochs: no early stop)
    n_mc_train: int
    max_train: int
    n_test_cold: int
    n_test_warm: int
    scenarios: Tuple[str, ...] = ("default",)
    lane_width: int = 8

    def training_seeds(self, seed: int) -> Tuple[int, ...]:
        """``--seed 0`` gives the profile seeds 1..n; other seeds shift them."""
        return tuple(seed + 1 + i for i in range(self.n_seeds))

    def config(self, seed: int, warm: bool):
        """The :class:`ExperimentConfig` the program receives."""
        from repro.experiments.config import ExperimentConfig

        return ExperimentConfig(
            seeds=self.training_seeds(seed),
            max_epochs=self.epochs,
            patience=self.epochs,
            n_mc_train=self.n_mc_train,
            n_test=self.n_test_warm if warm else self.n_test_cold,
            max_train=self.max_train,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train-iris-cold",
            why="90-row batches in 8-wide lockstep lanes: dispatch-bound "
                "LaneNetwork training and validation dominate; cache writes",
            surrogate_points=64, surrogate_epochs=60,
            datasets=("iris",), n_seeds=9, epochs=50, n_mc_train=10,
            max_train=1500, n_test_cold=20, n_test_warm=20,
        ),
        Workload(
            name="reeval-large-warm",
            why="cached designs re-tested at large n_test under default and "
                "stuck-at defects: MC evaluation, cache reads, SPICE deploy",
            surrogate_points=64, surrogate_epochs=60,
            datasets=("cardiotocography",), n_seeds=3, epochs=5, lane_width=2,
            n_mc_train=2, max_train=400, n_test_cold=10, n_test_warm=800,
            scenarios=("default", "stuck-1pct"),
        ),
    )
}
