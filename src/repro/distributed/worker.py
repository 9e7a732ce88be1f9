"""Workers: honest gradient computation with clipping and DP noise.

An honest worker's per-step pipeline (Sections 2.3 and 5.1):

1. sample a batch of size ``b`` from its local data;
2. compute the mini-batch gradient;
3. clip to L2 norm ``G_max`` (batch-level, the paper's experimental
   choice, or per-example);
4. add the DP mechanism's noise ("each worker adds a privacy noise only
   after clipping the original gradient");
5. optionally accumulate worker-side momentum over the (noisy, clipped)
   gradients and send the momentum vector — the "distributed momentum"
   scheme of El-Mhamdi et al. 2021 [16], which is what the paper's
   experimental setup (momentum 0.99) uses.  Applying momentum *after*
   the noise keeps the DP guarantee intact (it is post-processing of
   the privatised outputs) while dividing the variance-to-norm ratio
   seen by the GAR by roughly ``sqrt((1+m)/(1-m))`` (~14 for m = 0.99);
6. send.

Byzantine workers are driven by the cluster: the colluding attack
crafts one vector per step and every Byzantine worker submits it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.batching import BatchSampler
from repro.distributed.messages import WorkerSubmission
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.privacy.clipping import clip_by_l2_norm, clip_per_example
from repro.privacy.mechanisms import NoiseMechanism
from repro.typing import Matrix, Vector

__all__ = ["HonestWorker", "CLIP_MODES", "compute_cohort"]

CLIP_MODES = ("batch", "per_example")


class HonestWorker:
    """An honest (non-Byzantine) worker.

    Parameters
    ----------
    worker_id:
        Identifier used in messages and seed derivation.
    model:
        The shared model (stateless; parameters come from the server).
    sampler:
        This worker's private batch sampler.
    noise_rng:
        Private stream for the DP mechanism's noise.
    g_max:
        Clipping norm ``G_max``; ``None`` disables clipping (only valid
        without DP, since calibration needs the bound).
    mechanism:
        DP noise mechanism; ``None`` disables noise injection.
    clip_mode:
        ``"batch"`` (clip the averaged gradient — the paper's setup) or
        ``"per_example"`` (clip each sample's gradient before
        averaging).
    momentum:
        Worker-side momentum coefficient (0 disables).  Applied last in
        the pipeline, on the clipped+noised gradient, so the DP
        guarantee is untouched (post-processing); the submitted vector
        is the momentum buffer, whose norm may reach
        ``G_max / (1 - momentum)``.
    """

    def __init__(
        self,
        worker_id: int,
        model: Model,
        sampler: BatchSampler,
        noise_rng: np.random.Generator,
        g_max: float | None = None,
        mechanism: NoiseMechanism | None = None,
        clip_mode: str = "batch",
        momentum: float = 0.0,
    ):
        if clip_mode not in CLIP_MODES:
            raise ConfigurationError(
                f"clip_mode must be one of {CLIP_MODES}, got {clip_mode!r}"
            )
        if g_max is not None and g_max <= 0:
            raise ConfigurationError(f"g_max must be positive, got {g_max}")
        if mechanism is not None and g_max is None:
            raise ConfigurationError(
                "a DP mechanism requires g_max: noise calibration needs the "
                "bounded-gradient assumption (Assumption 1)"
            )
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self._worker_id = int(worker_id)
        self._model = model
        self._sampler = sampler
        self._noise_rng = noise_rng
        self._g_max = g_max
        self._mechanism = mechanism
        self._clip_mode = clip_mode
        self._momentum = float(momentum)
        # Two velocity buffers: one over submitted (noisy) gradients —
        # what actually goes on the wire — and one over clean gradients,
        # so the omniscient attack's "clean" view stays meaningful.
        self._velocity_submitted: Vector | None = None
        self._velocity_clean: Vector | None = None
        self._last_batch: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def worker_id(self) -> int:
        """This worker's identifier."""
        return self._worker_id

    @property
    def last_batch(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The most recently sampled ``(features, labels)`` batch.

        The discrete-event simulator scores it when an update lands —
        the paper's "average loss over the training datapoints sampled
        by the honest workers" at the parameters that update replaces —
        and so do the cohort paths without a stacked forward pass.
        """
        return self._last_batch

    @property
    def uses_dp(self) -> bool:
        """Whether this worker injects DP noise."""
        return self._mechanism is not None

    def compute(self, parameters: Vector, step: int) -> WorkerSubmission:
        """Run the full per-step pipeline and return the submission."""
        del step  # the pipeline is step-independent; kept for symmetry
        features, labels = self._sampler.sample()
        self._last_batch = (features, labels)
        return self._finish(parameters, features, labels)

    def _finish(
        self, parameters: Vector, features: np.ndarray, labels: np.ndarray
    ) -> WorkerSubmission:
        """Gradient + clip + noise + momentum for an already-sampled batch.

        Split out of :meth:`compute` so the cohort path
        (:func:`compute_cohort`) can fall back here without consuming
        the batch sampler's RNG stream twice.
        """
        if self._clip_mode == "per_example" and self._g_max is not None:
            per_example = self._model.per_example_gradients(parameters, features, labels)
            gradient = clip_per_example(per_example, self._g_max).mean(axis=0)
        else:
            gradient = self._model.gradient(parameters, features, labels)
            if self._g_max is not None:
                gradient = clip_by_l2_norm(gradient, self._g_max)

        # The model hands back a fresh array (clipping at most rescales
        # it), so owning it needs no copy — only a dtype guarantee.
        clean = np.asarray(gradient, dtype=np.float64)
        if self._mechanism is not None:
            noisy = self._mechanism.privatize(clean, self._noise_rng)
        else:
            # No noise: the wire vector *is* the clean gradient.  Both
            # submission fields share the one array; consumers stack or
            # copy before mutating.
            noisy = clean

        if self._momentum > 0.0:
            if self._velocity_submitted is None:
                self._velocity_submitted = np.zeros_like(noisy)
                self._velocity_clean = np.zeros_like(clean)
            # In-place accumulation: v <- m*v, v <- v + g — the same
            # elementwise operations as the allocating form, without the
            # two fresh buffers and two copies per round.  The returned
            # submission borrows the live buffers; they are stable until
            # this worker's next compute.
            self._velocity_submitted *= self._momentum
            self._velocity_submitted += noisy
            self._velocity_clean *= self._momentum
            self._velocity_clean += clean
            return WorkerSubmission(
                submitted=self._velocity_submitted,
                clean=self._velocity_clean,
            )
        return WorkerSubmission(submitted=noisy, clean=clean)

    def reset(self) -> None:
        """Clear momentum state and the cached batch."""
        self._velocity_submitted = None
        self._velocity_clean = None
        self._last_batch = None


def _score_batches(workers: Sequence[HonestWorker], parameters: Vector) -> np.ndarray:
    """Each sampled batch's loss at ``parameters``, in worker order.

    One :meth:`Model.loss_stack` call when every batch has the same
    shape, per-batch :meth:`Model.loss` otherwise; a worker that
    sampled no batch adds no loss.
    """
    scored = [worker for worker in workers if worker.last_batch is not None]
    if not scored:
        return np.zeros(0)
    model = scored[0]._model
    batches = [worker.last_batch for worker in scored]
    shapes = {(np.shape(features), np.shape(labels)) for features, labels in batches}
    if len(shapes) == 1:
        losses = model.loss_stack(
            parameters,
            np.stack([features for features, _ in batches]),
            np.stack([labels for _, labels in batches]),
        )
    else:
        losses = [
            model.loss(parameters, features, labels) for features, labels in batches
        ]
    return np.asarray(losses, dtype=np.float64)


def compute_cohort(
    workers: Sequence[HonestWorker], parameters: Vector, step: int
) -> tuple[Matrix, Matrix, np.ndarray]:
    """Run one round of the whole honest cohort as stacked matrix ops.

    Returns ``(submitted, clean, losses)``: the ``(W, d)`` matrices —
    the same rows that ``[w.compute(parameters, step) for w in workers]``
    would produce — and each worker's batch loss at ``parameters``, the
    paper's training-loss sample (Section 5.1).  The per-step pipeline
    is vectorized across workers: one stacked forward/backward pass
    (:meth:`Model.loss_and_gradient_stack`) yields the gradients and
    the losses together, then one batched clip and one batched momentum
    update.  Batch sampling and DP noise remain sequential per worker
    so every private RNG stream is consumed in the same order as the
    per-worker path.

    Numerically the fast path is equivalent to the per-worker path but
    not bit-identical: the stacked contractions reduce in a different
    order than per-worker BLAS calls, so results agree only to rounding
    (~1 ulp per step).  Which path runs is a pure function of the
    cohort's configuration (same models, clip modes, and batch shapes
    → fast path), so any fixed experiment configuration is internally
    deterministic — which is what the golden-trace harness pins down.

    Falls back to the per-worker pipeline when the cohort is
    heterogeneous (different models, clip modes, or batch shapes) or
    when any worker subclass overrides :meth:`HonestWorker.compute` /
    ``_finish`` (custom per-worker behaviour always wins over the fast
    path) — correctness never depends on the fast path.  The fallbacks
    and per-example clipping score the sampled batches separately (one
    ``loss_stack`` over equal shapes, else per batch); a worker that
    sampled no batch adds no loss.  This function lives in the worker
    module on purpose: it is the stacked twin of the per-worker
    pipeline and shares its internals.
    """
    workers = list(workers)
    if not workers:
        raise ConfigurationError("compute_cohort needs at least one worker")
    if any(
        type(worker).compute is not HonestWorker.compute
        or type(worker)._finish is not HonestWorker._finish
        for worker in workers
    ):
        submissions = [worker.compute(parameters, step) for worker in workers]
        return (
            np.stack([s.submitted for s in submissions]),
            np.stack([s.clean for s in submissions]),
            _score_batches(workers, parameters),
        )
    del step  # the stock pipeline is step-independent
    # Sampling stays sequential per worker (private RNG streams), and the
    # sampled batches are cached on the workers (``last_batch``).
    batches = []
    for worker in workers:
        features, labels = worker._sampler.sample()
        worker._last_batch = (features, labels)
        batches.append((np.asarray(features), np.asarray(labels)))

    model = workers[0]._model
    clip_mode = workers[0]._clip_mode
    uniform = (
        all(w._model is model for w in workers)
        and all(w._clip_mode == clip_mode for w in workers)
        and len({(f.shape, l.shape) for f, l in batches}) == 1
        and (
            clip_mode == "batch"
            or all(w._g_max is not None for w in workers)
        )
    )
    if not uniform:
        submissions = [
            worker._finish(parameters, *batch)
            for worker, batch in zip(workers, batches)
        ]
        return (
            np.stack([s.submitted for s in submissions]),
            np.stack([s.clean for s in submissions]),
            _score_batches(workers, parameters),
        )

    features_stack = np.stack([features for features, _ in batches])
    labels_stack = np.stack([labels for _, labels in batches])
    if clip_mode == "per_example":
        # Per-example gradients still come from the model's per-worker
        # API, but the clip itself is one batched rescale.
        per_example = np.stack(
            [
                model.per_example_gradients(parameters, features, labels)
                for features, labels in batches
            ]
        )  # (W, b, d)
        norms = np.sqrt(np.einsum("wbd,wbd->wb", per_example, per_example))
        safe_norms = np.where(norms > 0.0, norms, 1.0)
        g_max = np.array([w._g_max for w in workers])
        scales = np.minimum(1.0, g_max[:, None] / safe_norms)
        clean = (per_example * scales[:, :, None]).mean(axis=1)
        losses = model.loss_stack(parameters, features_stack, labels_stack)
    else:
        if model._single_pass_conflict() is None:
            losses, gradients = model.loss_and_gradient_stack(
                parameters, features_stack, labels_stack
            )
        else:
            losses = model.loss_stack(parameters, features_stack, labels_stack)
            gradients = model.gradient_stack(parameters, features_stack, labels_stack)
        clean = np.array(gradients, dtype=np.float64)
        g_max = np.array(
            [np.inf if w._g_max is None else w._g_max for w in workers]
        )
        norms = np.sqrt(np.einsum("wd,wd->w", clean, clean))
        exceeds = norms > g_max  # all-zero rows have norm 0 <= g_max
        if exceeds.any():
            clean[exceeds] *= (g_max[exceeds] / norms[exceeds])[:, None]

    # DP noise per worker: each stream is private, so the draws stay
    # sequential, but each is already vectorized over the dimension.
    # When every worker injects noise the loop overwrites every row, so
    # seeding the matrix with a copy of ``clean`` would be pure waste.
    all_noised = all(w._mechanism is not None for w in workers)
    submitted = np.empty_like(clean) if all_noised else clean.copy()
    for index, worker in enumerate(workers):
        if worker._mechanism is not None:
            submitted[index] = worker._mechanism.privatize(
                clean[index], worker._noise_rng
            )

    momenta = np.array([w._momentum for w in workers])
    with_momentum = momenta > 0.0
    if with_momentum.any():
        dimension = clean.shape[1]
        # Masked in-place accumulation directly on each worker's buffer
        # (v <- m*v, v <- v + g: the same elementwise operations as the
        # stacked form) and row writes into the round matrices — no
        # stacked velocity copies, no full-matrix ``np.where``.
        for index, worker in enumerate(workers):
            if not with_momentum[index]:
                continue
            if worker._velocity_submitted is None:
                worker._velocity_submitted = np.zeros(dimension)
                worker._velocity_clean = np.zeros(dimension)
            worker._velocity_submitted *= worker._momentum
            worker._velocity_submitted += submitted[index]
            worker._velocity_clean *= worker._momentum
            worker._velocity_clean += clean[index]
            submitted[index] = worker._velocity_submitted
            clean[index] = worker._velocity_clean
    return submitted, clean, np.asarray(losses, dtype=np.float64)
