"""Monte-Carlo evaluation under printing variation (Sec. IV-C).

Every trained pNN is tested with ``N_test = 100`` variation samples: each
sample instantiates one fabricated circuit (perturbed conductances and
nonlinear-circuit components), classifies the whole test set, and yields
one accuracy.  Table II reports the mean and standard deviation over these
samples — the standard deviation is the paper's robustness measure.

Evaluation runs autograd-free over a
:class:`~repro.core.params.PNNParams` snapshot through
:class:`EvalDriver`, which computes the :func:`repro.core.kernels.
network_forward` values with the Workspace (``out=``) kernels of
:mod:`repro.core.grad_kernels`: inference-heavy MC testing has no use for
a gradient tape, and its constant chunk shapes let every batch-sized
intermediate live in a buffer allocated once per evaluation.

**Per-evaluation plan.**  Everything that depends on the sample but not
on the test rows — effective θ, the Eq. 1 routing mask, weights and
denominators, and the η of every circuit — is computed once per
evaluation (or shard span), vectorized over all its samples
(:meth:`EvalDriver.plan`).  The ``batch_mc`` chunk loop then runs only
the batch-sized work.  The plan also lists each layer's *inverter rows*:
the crossbar rows where some sample routes some output negatively.  The
Eq. 3 negative-weight transfer runs only on those rows (in layer 0 their
inputs are gathered once, since every chunk sees the same input), and
Eq. 3's negation is folded into η as ``(−η1) + (−η2)·tanh(…)``, which is
exact under round-to-nearest.

**Why the row skip is exact.**  Both Eq. 1 matmuls stay full-width, with
the same operands and shapes.  Only the inverted buffer's other columns
change: they hold 0.0 where they used to hold computed values.  Every
weight they meet in ``neg_w`` is exactly +0.0 (every sample routes that
row positively), so each product is ±0 and every sum is unchanged,
however BLAS orders the reduction.  A 0·NaN could break that, so the test
inputs, every effective θ and every η must be finite: a non-finite one
raises ``ValueError`` naming the layer and circuit instead of turning
into a Table-II number.

**Sampling stream.**  The ε factors for all ``n_test`` fabrications are
drawn *up front*, in fixed blocks of :data:`SAMPLE_BLOCK` samples (per
block, per layer: θ, activation ω, negative-weight ω — the canonical
order).  Compute chunking (``batch_mc``) then merely slices the pre-drawn
factors, so results are exactly invariant to ``batch_mc``.  The block size
is a frozen constant, not a tunable: it reproduces the historical noise
stream (the sampler used to be consumed per evaluation chunk with the
default ``batch_mc = 20``), keeping every recorded Table-II number
bit-identical.  Changing it would silently re-roll all MC results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.core import kernels, shm
from repro.core.grad_kernels import (
    Workspace,
    augment_into,
    crossbar_combine,
    crossbar_weights,
    transfer_fwd,
)
from repro.core.params import PNNParams, snapshot_params
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import (
    DEFAULT_SCENARIO,
    Perturbation,
    VariationModel,
    build_scenario_model,
    eps_concat,
)

#: Frozen width of the ε pre-draw blocks (see the module docstring).
SAMPLE_BLOCK = 20

#: Ceiling on the default compute-chunk width inside one shard
#: (``batch_mc=None``).  Five ε blocks per chunk amortizes kernel dispatch
#: on small test sets; results are chunk-invariant anyway.
SHARD_BATCH_MC = 5 * SAMPLE_BLOCK

#: Per-chunk budget behind the adaptive default: a chunk's full-width
#: ``batch_mc × batch × (features + 2)`` doubles (one x_aug or inverted
#: buffer) should stay cache-sized.  Measured on one core (1 shard, inline,
#: ``stuck-1pct``): a 425-row, 21-feature test set runs 118 ms per 800
#: samples at chunk 20 but 150 ms at 40 and 172 ms at 100; 200 rows run best
#: at 40 and 100 rows at 40–60, while a 30-row set is flat from 40 to 200.
_SHARD_TARGET_BYTES = 1 << 20


def _default_shard_batch(span: int, x: np.ndarray) -> int:
    """Largest ε-block multiple whose intermediates fit the cache budget."""
    per_row = max(1, x.shape[0] * (x.shape[1] + 2) * 8)
    rows = min(_SHARD_TARGET_BYTES // per_row, SHARD_BATCH_MC)
    blocks = max(1, rows // SAMPLE_BLOCK)
    return max(1, min(span, blocks * SAMPLE_BLOCK))


@dataclass
class MonteCarloAccuracy:
    """Accuracy distribution over simulated fabrications."""

    accuracies: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.accuracies.std())

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f}"


Design = Union[PrintedNeuralNetwork, PNNParams]


def _require_finite(values: np.ndarray, what: str) -> None:
    """Refuse a non-finite per-evaluation array; ``what`` names its source."""
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite {what}")


def _eta(layer_index: int, kind: str, omega: np.ndarray, surrogate,
         eps) -> np.ndarray:
    """One layer's circuit η ``(n | 1, C, 4)``, checked finite per circuit."""
    eta = kernels.circuit_eta(omega, surrogate, eps)
    finite = np.isfinite(eta).all(axis=(0, 2))
    if not finite.all():
        circuit = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"non-finite η in layer {layer_index}, {kind} circuit {circuit}"
        )
    return eta


#: Folds Eq. 3's output negation into η: ``(−η1) + (−η2)·tanh(…)`` equals
#: ``−(η1 + η2·tanh(…))`` bit for bit, because round-to-nearest is
#: sign-symmetric — so the folded η runs through the Eq. 2 form.
_NEGATE_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


def _span_rows(array: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Samples ``[lo, hi)`` of a per-evaluation array (size-1 axes broadcast)."""
    return array if array.shape[0] == 1 else array[lo:hi]


@dataclass(frozen=True)
class LayerPlan:
    """One layer's per-evaluation operands over a span of samples.

    ``rows`` lists the crossbar rows the negative-weight circuit runs on:
    those where the effective θ of *some* sample routes *some* output
    negatively.  ``neg_eta`` is the negation η with Eq. 3's sign folded
    in (:data:`_NEGATE_ETA`), its circuit axis sliced to ``rows`` when
    there is one circuit per row; ``x_rows`` (layer 0 only) holds those
    rows of the augmented test input, which every chunk shares.
    """

    pos_w: np.ndarray                   # (n | 1, in+2, out)
    neg_w: np.ndarray                   # (n | 1, in+2, out)
    denom: np.ndarray                   # (n | 1, 1, out)
    rows: np.ndarray                    # (k,) inverter rows
    neg_eta: np.ndarray                 # (n | 1, 1 | k, 4)
    act_eta: Optional[np.ndarray]       # (n | 1, C, 4) or None
    x_rows: Optional[np.ndarray]        # (batch, k), layer 0 only

    def chunk(self, lo: int, hi: int) -> "LayerPlan":
        return LayerPlan(
            _span_rows(self.pos_w, lo, hi),
            _span_rows(self.neg_w, lo, hi),
            _span_rows(self.denom, lo, hi),
            self.rows,
            _span_rows(self.neg_eta, lo, hi),
            None if self.act_eta is None else _span_rows(self.act_eta, lo, hi),
            self.x_rows,
        )


@dataclass(frozen=True)
class EvalPlan:
    """The per-sample work of one evaluation (or shard span), done once.

    Built by :meth:`EvalDriver.plan`; :meth:`chunk` slices it into the
    ``batch_mc``-wide pieces :meth:`EvalDriver.forward` runs.
    """

    n_mc: int
    layers: Tuple[LayerPlan, ...]

    def chunk(self, lo: int, hi: int) -> "EvalPlan":
        """Samples ``[lo, hi)`` of the span (views, no copies)."""
        return EvalPlan(hi - lo, tuple(layer.chunk(lo, hi) for layer in self.layers))

    def row_counts(self) -> Dict[str, List[int]]:
        """Per layer: inverter rows evaluated, and rows that could route."""
        return {
            "inverter_rows": [int(layer.rows.size) for layer in self.layers],
            # Every row but the ground row may route negatively.
            "routable_rows": [layer.pos_w.shape[-2] - 1 for layer in self.layers],
        }


class EvalDriver:
    """MC-evaluation forward over one design and test set, one Workspace.

    Computes exactly the :func:`repro.core.kernels.network_forward`
    values, split in two:

    - :meth:`plan` does the per-sample work of a whole evaluation (or
      shard span) at once, vectorized over its samples: effective θ, the
      Eq. 1 routing, weights and denominators, every circuit η, and the
      set of inverter rows;
    - :meth:`forward` runs one ``batch_mc`` chunk of the batch-sized work
      through the ``out=`` kernels of :mod:`repro.core.grad_kernels`,
      whose buffers persist across chunks (chunk shapes are constant, so
      the steady state allocates nothing of batch size).

    The negative-weight circuit runs only on the plan's inverter rows (see
    the module docstring for why that is exact).  ``out=`` ufuncs and
    matmuls round identically to their allocating forms, so the output is
    bitwise equal to ``network_forward`` (pinned per chunk by
    ``tests/core/test_kernel_equivalence.py`` and
    ``tests/core/test_eval_plan.py``).
    """

    def __init__(self, params: PNNParams, x: np.ndarray):
        data = np.asarray(x, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("expected a (batch, features) input")
        if data.shape[1] != params.layer_sizes[0]:
            raise ValueError(
                f"input has {data.shape[1]} features, "
                f"network expects {params.layer_sizes[0]}"
            )
        _require_finite(data, "test input x")
        self.params = params
        self.x = data
        self.workspace = Workspace()
        # The augmented input of layer 0, whose inverter rows every plan
        # gathers from.
        self._x_aug0 = augment_into(np.empty((data.shape[0], data.shape[1] + 2)), data)
        # Per layer: the x_aug buffer whose bias and ground columns are
        # already written.  Those columns are constant, and so is all of
        # layer 0's (the same input every chunk), so they are written only
        # when the buffer is (re)allocated; nothing else writes them.
        self._augmented: Dict[str, np.ndarray] = {}
        # Per layer: the inverted buffer and the rows it was zeroed for.
        self._inverted_rows: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def plan(self, epsilons: Optional[List[kernels.LayerEpsilons]] = None,
             start: int = 0, stop: Optional[int] = None) -> EvalPlan:
        """Per-sample work for samples ``[start, stop)`` of ``epsilons``.

        ``epsilons=None`` plans the nominal forward (one sample).  Raises
        ``ValueError`` on a malformed draw, a non-finite effective θ or a
        non-finite circuit η.
        """
        params = self.params
        n_mc = 1
        if epsilons is not None:
            if len(epsilons) != len(params.layers):
                raise ValueError("need one epsilon triple per layer")
            first = epsilons[0][0]
            if first is not None:
                n_mc = (first.shape[0] if stop is None else stop) - start
        scratch = Workspace()
        layers = []
        for index, layer in enumerate(params.layers):
            eps_theta = eps_act = eps_neg = None
            if epsilons is not None:
                eps_theta, eps_act, eps_neg = (
                    None if eps is None
                    else (eps if isinstance(eps, Perturbation)
                          else np.asarray(eps, dtype=np.float64))[start:stop]
                    for eps in epsilons[index]
                )

            theta_eff = layer.theta[None]                     # (1, I+2, O)
            if eps_theta is not None:
                if eps_theta.ndim != 3 or eps_theta.shape[1:] != layer.theta.shape:
                    raise ValueError("epsilon_theta must be (n_mc, in+2, out)")
                theta_eff = kernels.apply_nonideality(theta_eff, eps_theta)
            _require_finite(theta_eff, f"effective θ in layer {index}, crossbar")
            route, pos_w, neg_w, denom = crossbar_weights(
                theta_eff, scratch, tag=f"l{index}"
            )
            rows = np.flatnonzero((route == 0.0).any(axis=(0, 2)))

            neg_eta = _eta(index, "negative-weight", layer.neg_omega,
                           params.neg_surrogate, eps_neg)
            if neg_eta.shape[1] > 1:
                neg_eta = neg_eta[:, rows]
            act_eta = None
            if layer.apply_activation:
                act_eta = _eta(index, "activation", layer.act_omega,
                               params.act_surrogate, eps_act)
            layers.append(LayerPlan(
                pos_w, neg_w, denom, rows, neg_eta * _NEGATE_ETA, act_eta,
                self._x_aug0[:, rows] if index == 0 else None,
            ))
        return EvalPlan(n_mc, tuple(layers))

    def _inverted(self, tag: str, shape: Tuple[int, ...], rows: np.ndarray) -> np.ndarray:
        """The full-width inverted buffer: 0.0 outside ``rows``."""
        buffer = self.workspace.buf(f"{tag}.inv", shape)
        zeroed = self._inverted_rows.get(tag)
        if zeroed is None or zeroed[0] is not buffer or zeroed[1] is not rows:
            buffer.fill(0.0)
            self._inverted_rows[tag] = (buffer, rows)
        return buffer

    def forward(self, epsilons: Union[None, EvalPlan, List[kernels.LayerEpsilons]] = None
                ) -> np.ndarray:
        """Output voltages ``(n_mc, batch, classes)`` for one draw chunk.

        ``epsilons`` is a chunk of a :meth:`plan` (the evaluation loop), or
        raw per-layer draws / ``None``, which are planned first.
        """
        plan = epsilons if isinstance(epsilons, EvalPlan) else self.plan(epsilons)
        ws = self.workspace
        batch = self.x.shape[0]
        hidden = None
        for index, step in enumerate(plan.layers):
            tag = f"mc.l{index}"
            shape = (plan.n_mc, batch, step.pos_w.shape[-2])
            x_aug = ws.buf(f"{tag}.x_aug", shape)
            if self._augmented.get(tag) is not x_aug:
                augment_into(x_aug, self.x if index == 0 else hidden)
                self._augmented[tag] = x_aug
            elif index > 0:
                x_aug[..., :-2] = hidden

            inverted = self._inverted(tag, shape, step.rows)
            if step.rows.size:
                if step.x_rows is not None:
                    source = step.x_rows
                else:
                    # mode="clip" skips numpy's buffered bounds check;
                    # every row index is in range.
                    source = np.take(x_aug, step.rows, axis=-1, mode="clip", out=ws.buf(
                        f"{tag}.neg.in", (*shape[:-1], step.rows.size)))
                # Eq. 3 with the negation folded into η (the Eq. 2 form).
                values, _ = transfer_fwd(source, step.neg_eta, "ptanh",
                                         ws=ws, tag=f"{tag}.neg", keep=False)
                inverted[..., step.rows] = values
            hidden, _ = crossbar_combine(x_aug, inverted, step.pos_w, step.neg_w,
                                         step.denom, ws, tag)
            if step.act_eta is not None:
                hidden, _ = transfer_fwd(hidden, step.act_eta, "ptanh",
                                         ws=ws, tag=f"{tag}.act", keep=False)
        return hidden

    def predict(self, epsilons: Union[None, EvalPlan, List[kernels.LayerEpsilons]] = None
                ) -> np.ndarray:
        """Class predictions ``(n_mc, batch)`` for one draw chunk."""
        voltages = self.forward(epsilons)
        out = self.workspace.buf("mc.pred", voltages.shape[:-1], dtype=np.intp)
        return np.argmax(voltages, axis=-1, out=out)


def _as_params(design: Design) -> PNNParams:
    if isinstance(design, PNNParams):
        return design
    return snapshot_params(design)


def draw_variation_samples(
    params: PNNParams,
    variation,
    n_test: int,
    block: int = SAMPLE_BLOCK,
) -> List[kernels.LayerEpsilons]:
    """Pre-draw all variation perturbations for ``n_test`` fabrications.

    Consumes the model's stream in blocks of ``block`` samples (each block
    draws θ, activation ω, negative-weight ω per layer, in order) and
    concatenates per layer.  Works for any
    :class:`~repro.core.variation.NonIdealityModel` (or duck-typed legacy
    sampler): bare ε arrays concatenate exactly as before, override-bearing
    perturbations concatenate field-wise.  Returns one
    :data:`~repro.core.kernels.LayerEpsilons` triple per layer, each with
    leading axis ``n_test``.
    """
    per_layer: List[List[List[np.ndarray]]] = [
        [[], [], []] for _ in params.layers
    ]
    remaining = n_test
    while remaining > 0:
        chunk = min(block, remaining)
        for index, layer in enumerate(params.layers):
            triple = kernels.sample_layer_epsilons(variation, chunk, layer)
            for slot, eps in zip(per_layer[index], triple):
                slot.append(eps)
        remaining -= chunk
    return [
        (
            eps_concat(theta_parts, axis=0),
            eps_concat(act_parts, axis=0),
            eps_concat(neg_parts, axis=0),
        )
        for theta_parts, act_parts, neg_parts in per_layer
    ]


def _resolve_variation(epsilon: float, seed: int, scenario: str):
    """The evaluation's non-ideality model, or ``None`` for a nominal run.

    Exactly the branch structure :func:`evaluate_mc` always had: the
    default scenario builds the legacy :class:`VariationModel` (or nothing
    at ε = 0); named scenarios build their registry model and collapse to
    nominal only when the model itself is nominal.
    """
    if scenario == DEFAULT_SCENARIO:
        if epsilon == 0.0:
            return None
        return VariationModel(epsilon, seed=seed)
    variation = build_scenario_model(scenario, epsilon, seed=seed)
    return None if variation.is_nominal else variation


def _nominal_accuracy(params: PNNParams, x: np.ndarray,
                      y: np.ndarray) -> MonteCarloAccuracy:
    predictions = EvalDriver(params, x).predict()         # (1, B)
    accuracy = float((predictions[0] == y).mean())
    return MonteCarloAccuracy(accuracies=np.asarray([accuracy]))


def _accuracy_rows(driver: EvalDriver, epsilons, y: np.ndarray, start: int,
                   stop: int, batch_mc: int, out: np.ndarray, span) -> None:
    """Fill ``out`` with per-fabrication accuracies for rows [start, stop).

    Plans the span's per-sample work once from the pre-drawn ε stream at
    *global* positions, then runs it chunk by chunk and writes at local
    ones — the shared inner loop of :func:`evaluate_mc` (start = 0) and of
    every shard in :func:`evaluate_mc_sharded`.  With telemetry on, the
    enclosing ``span`` records the plan's per-layer inverter row counts.
    """
    plan = driver.plan(epsilons, start, stop)
    for lo in range(0, stop - start, batch_mc):
        hi = min(lo + batch_mc, stop - start)
        predictions = driver.predict(plan.chunk(lo, hi))  # (chunk, B)
        np.mean(predictions == y, axis=1, out=out[lo:hi])
    if telemetry.get().enabled:
        span.attrs.update(plan.row_counts())


def evaluate_mc(
    design: Design,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    n_test: int = 100,
    seed: int = 0,
    batch_mc: int = 20,
    scenario: str = DEFAULT_SCENARIO,
) -> MonteCarloAccuracy:
    """Evaluate accuracy over ``n_test`` fabricated-circuit samples.

    ``design`` may be a live :class:`PrintedNeuralNetwork` (snapshotted
    once) or an already-frozen :class:`~repro.core.params.PNNParams`.
    ``epsilon = 0`` collapses to a single nominal evaluation.  Monte-Carlo
    samples are *computed* in chunks of ``batch_mc`` to bound memory; the
    ε stream is pre-drawn in fixed :data:`SAMPLE_BLOCK` blocks, so the
    result is independent of ``batch_mc``.

    ``scenario`` selects the non-ideality model
    (:data:`repro.core.variation.SCENARIOS`).  The default scenario takes
    the pre-refactor ε-only branch unchanged; named scenarios build their
    model at ``(epsilon, seed)`` and may be non-nominal even at ε = 0
    (stuck-at defects still fabricate broken devices).

    One :class:`EvalDriver` is built per call and reused across chunks,
    so its scratch buffers are allocated once for the whole evaluation.
    """
    params = _as_params(design)
    y = np.asarray(y, dtype=np.int64)
    variation = _resolve_variation(epsilon, seed, scenario)
    if variation is None:
        return _nominal_accuracy(params, x, y)

    epsilons = draw_variation_samples(params, variation, n_test)
    batch_mc = max(1, int(batch_mc))
    # One driver (one scratch workspace) reused across every chunk; one
    # preallocated output row per fabrication.
    driver = EvalDriver(params, x)
    accuracies = np.empty(n_test, dtype=np.float64)
    with telemetry.get().span(
        "mc.evaluate",
        scenario=scenario,
        epsilon=epsilon,
        n_test=int(n_test),
        batch_mc=batch_mc,
    ) as span:
        _accuracy_rows(driver, epsilons, y, 0, n_test, batch_mc, accuracies, span)
    return MonteCarloAccuracy(accuracies=accuracies)


def plan_shards(n_test: int, shards: int,
                block: int = SAMPLE_BLOCK) -> List[Tuple[int, int]]:
    """Split ``n_test`` fabrications into shard spans on ε-block boundaries.

    Every boundary except the final stop is a multiple of ``block``
    (:data:`SAMPLE_BLOCK`), so each shard consumes whole pre-drawn ε
    blocks and the concatenated shard outputs reproduce the serial stream
    exactly.  Blocks spread as evenly as possible; ``shards`` is clamped
    to the number of blocks so every span is non-empty.
    """
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    shards = max(1, int(shards))
    n_blocks = -(-n_test // block)
    shards = min(shards, n_blocks)
    per_shard, remainder = divmod(n_blocks, shards)
    spans: List[Tuple[int, int]] = []
    cursor = 0
    for index in range(shards):
        width = (per_shard + (1 if index < remainder else 0)) * block
        start, cursor = cursor, min(n_test, cursor + width)
        spans.append((start, cursor))
    return spans


#: Per-process cache of the latest mapped payload and its driver.  Every
#: shard of one published evaluation that lands in a process reuses a
#: single mapping and a single driver (with its preallocated scratch) —
#: one driver per worker, not one per shard.  Keyed by the payload's
#: segment names, which are unique per publish, so a new payload evicts
#: and closes the stale mapping.
_SHARD_CACHE: Dict[Tuple[str, str, str],
                   Tuple[shm.MappedEvaluation, EvalDriver]] = {}


def _shard_context(payload: shm.EvalPayload) -> Tuple[shm.MappedEvaluation, EvalDriver]:
    key = (payload.params.block.segment, payload.dataset.segment,
           payload.epsilons.block.segment)
    cached = _SHARD_CACHE.get(key)
    if cached is None:
        while _SHARD_CACHE:
            _, (stale, _) = _SHARD_CACHE.popitem()
            stale.close()
        mapping = shm.map_evaluation(payload)
        driver = EvalDriver(mapping.params, mapping.x)
        cached = (mapping, driver)
        _SHARD_CACHE[key] = cached
    return cached


def _evaluate_shard(payload: shm.EvalPayload, start: int, stop: int,
                    batch_mc: Optional[int]) -> np.ndarray:
    """Shard entry point — runs in pool workers (fork or spawn) or inline.

    Maps the published payload zero-copy (once per process, via
    :data:`_SHARD_CACHE`), evaluates its span, and returns only the fresh
    accuracy rows — the one thing that crosses the pipe back.
    """
    mapping, driver = _shard_context(payload)
    if batch_mc is None:
        batch_mc = _default_shard_batch(stop - start, mapping.x)
    batch_mc = max(1, int(batch_mc))
    out = np.empty(stop - start, dtype=np.float64)
    with telemetry.get().span(
        "mc.shard",
        start=int(start),
        stop=int(stop),
        batch_mc=batch_mc,
    ) as span:
        _accuracy_rows(driver, mapping.epsilons, mapping.y,
                       start, stop, batch_mc, out, span)
    return out


def evaluate_mc_sharded(
    design: Design,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    n_test: int = 100,
    seed: int = 0,
    batch_mc: Optional[int] = None,
    scenario: str = DEFAULT_SCENARIO,
    shards: int = 1,
    pool=None,
    store: Optional[shm.SharedArrayStore] = None,
    dataset_key=None,
) -> MonteCarloAccuracy:
    """Shard-parallel :func:`evaluate_mc` over the shared-memory data plane.

    The parent pre-draws the *complete* ε stream exactly as the serial
    loop does, publishes design, test set and stream once through
    :mod:`repro.core.shm`, and evaluates :func:`plan_shards` spans — each
    aligned to :data:`SAMPLE_BLOCK` boundaries, so each shard consumes
    whole pre-drawn blocks.  Per-shard accuracy rows are merged by ordered
    concatenation; because the kernels are chunk-invariant (the PR 1/PR 6
    equality gates), the result is **bitwise identical** to serial
    :func:`evaluate_mc` at every shard count, pooled or not.

    Parameters beyond :func:`evaluate_mc`'s:

    - ``batch_mc=None`` picks the shard-local compute chunk adaptively:
      the largest ε-block multiple (capped at :data:`SHARD_BATCH_MC`)
      whose per-chunk intermediates fit the cache budget; an explicit
      value is honored as-is.  Either way results do not change.
    - ``shards`` — requested shard count (clamped to whole ε blocks).
    - ``pool`` — optional executor (``fork`` or ``spawn``) to spread the
      shards over; ``None`` evaluates them inline, same data plane.
    - ``store`` — optional external :class:`~repro.core.shm.
      SharedArrayStore` to publish through (reused across calls); the
      per-call design/ε blocks are unpublished on exit either way, so
      publish/unlink accounting stays balanced.
    - ``dataset_key`` — cache key for the (x, y) block within ``store``,
      letting many evaluations on one dataset publish it once.

    Nominal evaluations (``ε = 0`` in the default scenario, or a nominal
    scenario model) early-return exactly like the serial path and touch no
    shared memory.
    """
    params = _as_params(design)
    y = np.asarray(y, dtype=np.int64)
    variation = _resolve_variation(epsilon, seed, scenario)
    if variation is None:
        return _nominal_accuracy(params, x, y)

    epsilons = draw_variation_samples(params, variation, n_test)
    spans = plan_shards(n_test, shards)
    owns_store = store is None
    if owns_store:
        store = shm.SharedArrayStore()
    payload = None
    try:
        with telemetry.get().span(
            "mc.evaluate_sharded",
            scenario=scenario,
            epsilon=epsilon,
            n_test=int(n_test),
            shards=len(spans),
            pooled=pool is not None,
        ):
            payload = shm.publish_evaluation(
                store, params, x, y, epsilons, dataset_key=dataset_key
            )
            if pool is None:
                rows = [
                    _evaluate_shard(payload, start, stop, batch_mc)
                    for start, stop in spans
                ]
            else:
                futures = [
                    pool.submit(_evaluate_shard, payload, start, stop, batch_mc)
                    for start, stop in spans
                ]
                rows = [future.result() for future in futures]
        return MonteCarloAccuracy(accuracies=np.concatenate(rows))
    finally:
        if owns_store:
            store.close()
        elif payload is not None:
            store.unpublish(payload.params.block)
            store.unpublish(payload.epsilons.block)


def evaluate_mc_autograd(
    pnn: PrintedNeuralNetwork,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    n_test: int = 100,
    seed: int = 0,
    batch_mc: int = 20,
) -> MonteCarloAccuracy:
    """Reference MC evaluation through the autograd ``Module`` forward.

    Kept as the slow, independent cross-check for :func:`evaluate_mc` (the
    equivalence tests and ``benchmarks/bench_inference_path.py`` compare
    the two).  Matches the kernel path bit for bit when
    ``batch_mc == SAMPLE_BLOCK``, because then both consume the variation
    stream in the same blocks.
    """
    from repro.autograd.tensor import no_grad

    y = np.asarray(y, dtype=np.int64)
    if epsilon == 0.0:
        with no_grad():
            voltages = pnn.forward(x)
        predictions = np.argmax(voltages.data, axis=-1)   # (1, B)
        accuracy = float((predictions[0] == y).mean())
        return MonteCarloAccuracy(accuracies=np.asarray([accuracy]))

    variation = VariationModel(epsilon, seed=seed)
    # Accumulate into one preallocated row per fabrication, like the
    # kernel path — not through a Python float list.
    accuracies = np.empty(n_test, dtype=np.float64)
    start = 0
    while start < n_test:
        stop = min(start + batch_mc, n_test)
        with no_grad():
            voltages = pnn.forward(x, variation=variation, n_mc=stop - start)
        predictions = np.argmax(voltages.data, axis=-1)   # (stop-start, B)
        np.mean(predictions == y, axis=1, out=accuracies[start:stop])
        start = stop
    return MonteCarloAccuracy(accuracies=accuracies)
