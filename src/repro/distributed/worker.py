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

A whole honest cohort runs a round through :func:`compute_cohort`:
each worker draws its batch indices in worker order, one
:class:`CohortPass` gathers the batches and computes steps 2–3 for all
of them as stacked matrix operations, and steps 4–5 follow per worker.
Every backend's cohort owner (the in-process cluster and its fused
engine, each multiprocess shard, the discrete-event simulator) builds
one pass over its workers, so the gather and the clip exist once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.distributed.messages import WorkerSubmission
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.privacy.clipping import clip_by_l2_norm, clip_per_example
from repro.privacy.mechanisms import NoiseMechanism
from repro.telemetry.timing import NULL_TIMER
from repro.typing import Matrix, Vector

__all__ = ["HonestWorker", "CLIP_MODES", "CohortPass", "compute_cohort"]

CLIP_MODES = ("batch", "per_example")

#: Target footprint of one chunk of gathered worker batches.  A cohort
#: pass gathers and differentiates the cohort this many bytes of batches
#: at a time, so the forward/backward pass reads its rows from cache
#: instead of from a whole-cohort gather (56 MB at d = 10 000).
_GATHER_BYTES = 4 << 20


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
        # The last sampled batch: a ``(features, labels)`` pair, or the
        # ``(dataset, rows)`` it was gathered from, which ``last_batch``
        # turns into the pair on first read.
        self._last_batch: tuple | None = None
        # ``(pass, position)`` once a CohortPass serves this worker.
        self._cohort_slot: tuple[CohortPass, int] | None = None

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
        The cohort pass records only the dataset rows it gathered; the
        batch itself is indexed out on the first read.
        """
        batch = self._last_batch
        if batch is not None and isinstance(batch[0], Dataset):
            dataset, rows = batch
            batch = self._last_batch = (dataset.features[rows], dataset.labels[rows])
        return batch

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


class CohortPass:
    """The honest cohort's batch-clip pass: gather, differentiate, clip.

    One pass serves any subset of one cohort's workers.  :meth:`run`
    takes their batch rows (dataset indices), gathers them chunk by
    chunk into reused ``(C, b, p)`` buffers — ``C`` workers per chunk,
    set by the ``_GATHER_BYTES`` budget, so one chunk holds the cohort
    at small d — runs one stacked forward/backward pass per chunk
    (:meth:`Model.loss_and_gradient_stack`) and clips every row to its
    worker's ``G_max`` in one batch.  The gather reads one source per
    distinct dataset: the model's :meth:`~Model.augment_features` when
    it supports pre-augmented stacks (the bias column is appended once,
    not every round), the raw features otherwise.  A stacked pass
    computes each worker's loss and row from that worker's batch alone,
    so neither the chunking nor the subset changes a bit of them.

    Each cohort owner builds one pass over its workers: the
    :class:`~repro.distributed.cluster.Cluster` (whose fused engine runs
    the same pass on its pre-drawn blocks), each multiprocess shard and
    the discrete-event simulator.  The pass attaches itself to its
    workers, which is how :func:`compute_cohort` finds it.  Sources and
    buffers are built on the first :meth:`run`, not here.
    """

    def __init__(self, workers: Sequence[HonestWorker]):
        self._workers = list(workers)
        if not self._workers:
            raise ConfigurationError("a cohort pass needs at least one worker")
        for position, worker in enumerate(self._workers):
            worker._cohort_slot = (self, position)
        #: Why this pass cannot serve its workers, or ``None`` when it can.
        self.reason = self._probe()
        self._features_buf = None

    def _probe(self) -> str | None:
        def layout(worker):
            dataset = worker._sampler.dataset
            return (
                worker._model,
                worker._sampler.batch_size,
                dataset.features.shape[1:],
                dataset.labels.shape[1:],
                dataset.features.dtype,
                dataset.labels.dtype,
            )

        for worker in self._workers:
            sampler = worker._sampler
            if not isinstance(sampler, BatchSampler) or (
                type(sampler).sample is not BatchSampler.sample
                or type(sampler).sample_indices is not BatchSampler.sample_indices
            ):
                return f"sampler {type(sampler).__name__} overrides sampling"
            if worker._clip_mode != "batch":
                return "per-example clipping is not a batch clip"
        first = layout(self._workers[0])
        if any(layout(worker) != first for worker in self._workers):
            return "heterogeneous cohort: models, batch sizes or dataset shapes differ"
        return None

    def _build(self) -> None:
        """The gather sources, the chunk buffers and the clip bounds."""
        if self.reason is not None:
            raise ConfigurationError(
                f"no cohort pass for these workers: {self.reason}"
            )
        workers = self._workers
        model = self._model = workers[0]._model
        # A model that overrides the two-pass methods while inheriting a
        # single pass keeps its own formulas: run the two methods.
        self._two_pass = model._single_pass_conflict() is not None
        self._augmented = bool(model.supports_augmented_stack) and not self._two_pass
        sources: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for worker in workers:
            dataset = worker._sampler.dataset
            if id(dataset) not in sources:
                features = dataset.features
                if self._augmented:
                    features = model.augment_features(features)
                sources[id(dataset)] = (features, dataset.labels)
        self._sources = [sources[id(w._sampler.dataset)] for w in workers]
        self._shared = len(sources) == 1
        features, labels = self._sources[0]
        batch_size = workers[0]._sampler.batch_size
        worker_bytes = batch_size * (features[:1].nbytes + labels[:1].nbytes)
        self._chunk = int(np.clip(_GATHER_BYTES // max(worker_bytes, 1), 1, len(workers)))
        self._features_buf = np.empty(
            (self._chunk, batch_size) + features.shape[1:], dtype=features.dtype
        )
        self._labels_buf = np.empty(
            (self._chunk, batch_size) + labels.shape[1:], dtype=labels.dtype
        )
        self._g_max = np.array(
            [np.inf if w._g_max is None else w._g_max for w in workers]
        )

    def run(
        self,
        parameters: Vector,
        rows: np.ndarray,
        losses: np.ndarray,
        clean: Matrix,
        positions: Sequence[int] | None = None,
        timer=NULL_TIMER,
    ) -> int:
        """One round's batch losses and clipped gradients for some workers.

        ``rows`` is a ``(k, b)`` index array: row ``j`` holds the batch
        drawn by the worker at position ``positions[j]`` of this pass
        (by every worker in order when ``positions`` is ``None``).
        Writes that worker's batch loss at ``parameters`` into
        ``losses[j]`` and its clipped gradient into ``clean[j]``, in
        arrays of ``k`` rows the caller supplies, and returns how many
        rows the clip rescaled.  ``timer`` laps the gathers as
        ``round.sample`` and the pass and the clip as ``round.cohort``.
        """
        if self._features_buf is None:
            self._build()
        model = self._model
        sources = self._sources
        count = len(rows)
        for start in range(0, count, self._chunk):
            stop = min(start + self._chunk, count)
            features = self._features_buf[: stop - start]
            labels = self._labels_buf[: stop - start]
            # ``mode='clip'`` is exact for the always-in-range sampler
            # indices and selects take's unbuffered fast path (the
            # default ``mode='raise'`` with ``out=`` is ~3x slower).
            if self._shared:
                source_features, source_labels = sources[0]
                chunk_rows = rows[start:stop]
                np.take(source_features, chunk_rows, axis=0, out=features, mode="clip")
                np.take(source_labels, chunk_rows, axis=0, out=labels, mode="clip")
            else:
                for row in range(start, stop):
                    source_features, source_labels = sources[
                        row if positions is None else positions[row]
                    ]
                    np.take(
                        source_features, rows[row], axis=0,
                        out=features[row - start], mode="clip",
                    )
                    np.take(
                        source_labels, rows[row], axis=0,
                        out=labels[row - start], mode="clip",
                    )
            timer.lap("round.sample")
            if self._two_pass:
                losses[start:stop] = model.loss_stack(parameters, features, labels)
                clean[start:stop] = model.gradient_stack(parameters, features, labels)
            elif self._augmented:
                losses[start:stop], clean[start:stop] = model.loss_and_gradient_stack(
                    parameters, features, labels, augmented=True
                )
            else:
                losses[start:stop], clean[start:stop] = model.loss_and_gradient_stack(
                    parameters, features, labels
                )
            timer.lap("round.cohort")
        g_max = self._g_max if positions is None else self._g_max[positions]
        norms = np.sqrt(np.einsum("wd,wd->w", clean, clean))
        exceeds = norms > g_max  # all-zero rows have norm 0 <= g_max
        clipped = 0
        if exceeds.any():
            clean[exceeds] *= (g_max[exceeds] / norms[exceeds])[:, None]
            clipped = int(np.count_nonzero(exceeds))
        timer.lap("round.cohort")
        return clipped


def _cohort_pass(workers: list[HonestWorker]):
    """The pass serving ``workers`` and their positions in it: the pass
    their owner built, or a new one over exactly these workers."""
    slots = [worker._cohort_slot for worker in workers]
    owner = slots[0] and slots[0][0]
    if owner is not None and all(slot and slot[0] is owner for slot in slots):
        return owner, [slot[1] for slot in slots]
    return CohortPass(workers), None


def compute_cohort(
    workers: Sequence[HonestWorker], parameters: Vector, step: int
) -> tuple[Matrix, Matrix, np.ndarray]:
    """Run one round of the whole honest cohort as stacked matrix ops.

    Returns ``(submitted, clean, losses)``: the ``(W, d)`` matrices —
    the same rows that ``[w.compute(parameters, step) for w in workers]``
    would produce — and each worker's batch loss at ``parameters``, the
    paper's training-loss sample (Section 5.1).  Every array is new:
    results of earlier rounds stay as they were.

    The batch-clip pipeline draws each worker's batch indices in worker
    order (:meth:`BatchSampler.sample_index_block`), records them as the
    worker's ``last_batch``, and runs the workers' :class:`CohortPass`
    — gather, one stacked forward/backward pass yielding the gradients
    and the losses together, one batched clip.  DP noise then follows
    per worker in worker order, so every private RNG stream is consumed
    as on the per-worker path, and each worker's momentum buffers take
    the round's rows.

    Numerically the stacked path is equivalent to the per-worker path
    but not bit-identical: the stacked contractions reduce in a
    different order than per-worker BLAS calls, so results agree only to
    rounding (~1 ulp per step).  Which path runs is a pure function of
    the cohort's configuration, so any fixed experiment configuration is
    internally deterministic — which is what the golden-trace harness
    pins down.

    Falls back when the pass cannot serve the workers, sampling each
    batch through :meth:`BatchSampler.sample`: per-example clipping on
    a uniform cohort runs one stacked per-example clip; heterogeneous
    cohorts (different models, clip modes, batch sizes or dataset
    shapes) and samplers that override ``sample``/``sample_indices`` run
    the per-worker pipeline.  Worker subclasses that override
    :meth:`HonestWorker.compute` / ``_finish`` always run their own
    pipeline — correctness never depends on the fast path.  The
    fallbacks score the sampled batches separately (one ``loss_stack``
    over equal shapes, else per batch); a worker that sampled no batch
    adds no loss.  This function lives in the worker module on purpose:
    it is the stacked twin of the per-worker pipeline and shares its
    internals.
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
    cohort, positions = _cohort_pass(workers)
    if cohort.reason is None:
        rows = np.concatenate(
            [worker._sampler.sample_index_block(1) for worker in workers]
        )
        for worker, worker_rows in zip(workers, rows):
            worker._last_batch = (worker._sampler.dataset, worker_rows)
        losses = np.empty(len(workers))
        clean = np.empty((len(workers), len(parameters)))
        cohort.run(parameters, rows, losses, clean, positions)
    else:
        batches = []
        for worker in workers:
            features, labels = worker._sampler.sample()
            worker._last_batch = (features, labels)
            batches.append((np.asarray(features), np.asarray(labels)))
        model = workers[0]._model
        if not (
            all(w._model is model for w in workers)
            and all(w._clip_mode == "per_example" for w in workers)
            and len({(f.shape, l.shape) for f, l in batches}) == 1
            and all(w._g_max is not None for w in workers)
        ):
            submissions = [
                worker._finish(parameters, *batch)
                for worker, batch in zip(workers, batches)
            ]
            return (
                np.stack([s.submitted for s in submissions]),
                np.stack([s.clean for s in submissions]),
                _score_batches(workers, parameters),
            )
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
        losses = np.asarray(
            model.loss_stack(
                parameters,
                np.stack([features for features, _ in batches]),
                np.stack([labels for _, labels in batches]),
            ),
            dtype=np.float64,
        )

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
    return submitted, clean, losses
