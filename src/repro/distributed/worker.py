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

The pipeline has one implementation, and it runs a whole honest cohort
at once: :func:`compute_cohort` draws each worker's batch indices in
worker order, one :class:`CohortPass` gathers the batches and computes
steps 2–3 for all of them as stacked matrix operations (a batch clip or
a per-example clip), and its epilogue, :meth:`CohortPass.finish`, runs
steps 4–5 on noise drawn from each worker's own stream.  The momentum
buffers live in one stack the pass owns.  Every backend's cohort owner
(the in-process cluster and its fused engine, each multiprocess shard,
the discrete-event simulator) builds one pass over its workers; a
cohort the pass cannot serve is refused when its owner is built.

At large d the pass runs on up to two CPUs the process may run on: its
chunks are dealt over short-lived threads, and so is a large noise
block's draw (see :class:`CohortPass`).  NumPy's gathers, ``einsum`` and
random draws release the GIL (a single ``matmul`` product does not),
and every thread's output rows are its own, so no result bit depends
on the thread count.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np

from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.exceptions import ConfigurationError
from repro.models.base import Model
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


#: Most threads one pass or one noise block runs on, whatever the host.
#: Each pass thread gathers into its own chunk buffers (4 MB more peak
#: memory per thread on ``highdim-topk``), so the cap keeps the pass's
#: scratch, in every process of a shard run or a job pool, from growing
#: with the core count; two is also all that has been measured.
_MAX_THREADS = 2


def _threads() -> int:
    """How many threads a large pass or noise block runs on: the CPUs
    in this process's affinity mask, at most ``_MAX_THREADS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_THREADS)


def _deal(count: int, threads: int, work) -> None:
    """Call ``work(item, group)`` for every item in ``range(count)``.

    The items are dealt round-robin into ``min(threads, count)`` groups
    (at least one), each of which runs its items in order: group 0 in
    the caller, every other group on a thread started here and joined
    before this returns, so no thread outlives the call (a later
    ``fork`` copies none).  A group stops at its first failure; after
    every join, the failure of the lowest item is re-raised, so a
    failing item raises the same exception at any thread count (an
    interrupt or exit, which is no ``Exception``, goes first).
    """
    groups = max(1, min(threads, count))
    failures = []

    def serve(group: int) -> None:
        for item in range(group, count, groups):
            try:
                work(item, group)
            except BaseException as error:  # re-raised by the caller
                # An interrupt or exit (no Exception) sorts first.
                failures.append((isinstance(error, Exception), item, error))
                return

    helpers = [
        threading.Thread(target=serve, args=(group,)) for group in range(1, groups)
    ]
    for helper in helpers:
        helper.start()
    try:
        serve(0)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures)[2]  # items are unique: errors are never compared


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
        # so the omniscient attack's "clean" view stays meaningful.  A
        # momentum worker's are row views of its CohortPass's stack.
        self._velocity_submitted: Vector | None = None
        self._velocity_clean: Vector | None = None
        # The last sampled batch: the ``(dataset, rows)`` it was gathered
        # from, which ``last_batch`` turns into a ``(features, labels)``
        # pair on first read.
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
        by the honest workers" at the parameters that update replaces.
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

    def reset(self) -> None:
        """Zero the momentum buffers (in place) and clear the cached batch."""
        if self._velocity_submitted is not None:
            self._velocity_submitted[:] = 0.0
            self._velocity_clean[:] = 0.0
        self._last_batch = None


def _clip_kind(worker: HonestWorker) -> str:
    """How the pass clips ``worker``'s gradient: per example only with a
    bound; without one either mode is an unclipped batch gradient."""
    if worker._clip_mode == "per_example" and worker._g_max is not None:
        return "per_example"
    return "batch"


def _refusal(workers: list[HonestWorker]) -> str | None:
    """Why one pass cannot serve ``workers``, or ``None`` when it can."""
    for worker in workers:
        sampler, mechanism = worker._sampler, worker._mechanism
        if not isinstance(sampler, BatchSampler) or (
            type(sampler).sample is not BatchSampler.sample
            or type(sampler).sample_indices is not BatchSampler.sample_indices
        ):
            return f"sampler {type(sampler).__name__} overrides sampling"
        # The epilogue adds sample_noise_block rows: no round calls privatize.
        if mechanism is not None and (
            not isinstance(mechanism, NoiseMechanism)
            or type(mechanism).privatize is not NoiseMechanism.privatize
        ):
            return f"mechanism {type(mechanism).__name__} overrides privatize"

    def dataset_shape(worker):
        dataset = worker._sampler.dataset
        return (
            dataset.features.shape[1:],
            dataset.labels.shape[1:],
            dataset.features.dtype,
            dataset.labels.dtype,
        )

    for name, key in (
        ("models", lambda worker: worker._model),
        ("batch sizes", lambda worker: worker._sampler.batch_size),
        ("dataset shapes", dataset_shape),
        ("clip kinds", _clip_kind),
    ):
        first = key(workers[0])
        if any(key(worker) != first for worker in workers):
            return f"mixed {name}"
    return None


class CohortPass:
    """The honest cohort's pass: gather, differentiate, clip; then noise
    and momentum.

    One pass serves any subset of one cohort's workers.  :meth:`run`
    takes their batch rows (dataset indices) and gathers them into
    reused ``(C, b, p)`` buffers.  A batch-clip cohort is gathered chunk
    by chunk — ``C`` workers per chunk, set by the ``_GATHER_BYTES``
    budget, so one chunk holds the cohort at small d — with one stacked
    forward/backward pass per chunk (:meth:`Model.loss_and_gradient_stack`)
    and one batched clip of every row to its worker's ``G_max``.  The
    gather reads one source per distinct dataset: the model's
    :meth:`~Model.augment_features` when it supports pre-augmented
    stacks (the bias column is appended once, not every round), the raw
    features otherwise.  A stacked pass computes each worker's loss and
    row from that worker's batch alone, so neither the chunking nor the
    subset changes a bit of them.

    The chunks are dealt round-robin over ``min(CPUs, 2, chunks)``
    threads (the CPUs in the affinity mask, capped by ``_MAX_THREADS``
    so the scratch does not grow with the host): the caller serves the
    first share, and each other share runs on a thread started for the
    call and joined before the clip.  Each thread owns one pair of
    gather buffers, and each chunk writes only its own rows, so every
    call keeps the shapes a one-thread pass makes.  At small d one chunk
    holds the cohort and no thread starts.  The clip stays one call over
    all rows, after the join: at large d an ``einsum`` row's bits can
    depend on how many rows its call holds.  Models are stateless
    functions of ``(w, batch)`` (:mod:`repro.models.base`), which is
    what lets two threads call one model at once.

    A per-example cohort (``clip_mode="per_example"`` with a bound) is
    gathered whole from the raw features: each worker's
    :meth:`Model.per_example_gradients`, one rescale of the whole
    ``(k, b, d)`` stack, the mean over each batch, then one
    :meth:`Model.loss_stack`.  The rescale is not chunked: at large d an
    ``einsum`` row's bits can depend on how many rows its call holds.

    The epilogue is written once too.  :meth:`draw_noise` draws each
    noised worker's rows from its own stream (a large block over the
    same threads), and :meth:`finish` adds them and updates worker
    momentum, whether one round runs (:func:`compute_cohort`) or the
    fused engine's pre-drawn block does.
    The pass owns the momentum: one ``(2, W, d)`` stack (submitted,
    clean) whose rows are its momentum workers' velocity buffers, so
    checkpoints and the fault stage read and write them in place.

    Each cohort owner builds one pass over its workers: the
    :class:`~repro.distributed.cluster.Cluster` (whose fused engine runs
    the pass that serves the workers at each run), each multiprocess
    shard and the discrete-event simulator.  The pass refuses workers
    that differ in model, batch size, dataset shape or clip kind,
    samplers that override sampling and mechanisms that override
    ``privatize``, with a :class:`ConfigurationError`.  It attaches
    itself to its workers, which is how :func:`compute_cohort` finds it;
    a worker another pass served carries its velocity into this one.
    The pass keeps only what it reads from its workers, so it holds no
    worker.  Sources and gather buffers are built on the first
    :meth:`run`, not here.
    """

    def __init__(self, workers: Sequence[HonestWorker]):
        workers = list(workers)
        if not workers:
            raise ConfigurationError("a cohort pass needs at least one worker")
        reason = _refusal(workers)
        if reason is not None:
            raise ConfigurationError(f"no cohort pass for these workers: {reason}")
        self._model = workers[0]._model
        self._batch_size = workers[0]._sampler.batch_size
        self._per_example = _clip_kind(workers[0]) == "per_example"
        self._datasets = [worker._sampler.dataset for worker in workers]
        self._g_max = np.array(
            [np.inf if w._g_max is None else w._g_max for w in workers]
        )
        self._mechanisms = [worker._mechanism for worker in workers]
        self._noise_rngs = [worker._noise_rng for worker in workers]
        self._noised = np.array([m is not None for m in self._mechanisms])
        self._momenta = np.array([worker._momentum for worker in workers])
        self._velocity = None
        if self._momenta.any():
            self._velocity = np.zeros((2, len(workers), self._model.dimension))
        for position, worker in enumerate(workers):
            worker._cohort_slot = (self, position)
            if self._momenta[position] > 0.0:
                rows = self._velocity[:, position]
                if worker._velocity_submitted is not None:  # carried over
                    rows[0] = worker._velocity_submitted
                    rows[1] = worker._velocity_clean
                worker._velocity_submitted, worker._velocity_clean = rows
        self._features_buf = None

    def _build(self) -> None:
        """The gather sources and each thread's chunk buffers."""
        model = self._model
        # A model that overrides the two-pass methods while inheriting a
        # single pass keeps its own formulas: run the two methods.
        self._two_pass = model._single_pass_conflict() is not None
        self._augmented = (
            bool(model.supports_augmented_stack)
            and not self._two_pass
            and not self._per_example
        )
        sources: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for dataset in self._datasets:
            if id(dataset) not in sources:
                features = dataset.features
                if self._augmented:
                    features = model.augment_features(features)
                sources[id(dataset)] = (features, dataset.labels)
        self._sources = [sources[id(dataset)] for dataset in self._datasets]
        self._shared = len(sources) == 1
        features, labels = self._sources[0]
        count = len(self._sources)
        worker_bytes = self._batch_size * (features[:1].nbytes + labels[:1].nbytes)
        self._chunk = (
            count
            if self._per_example
            else int(np.clip(_GATHER_BYTES // max(worker_bytes, 1), 1, count))
        )
        chunks = -(-count // self._chunk)
        threads = 1 if self._per_example else min(_threads(), chunks)
        shape = (self._chunk, self._batch_size)
        self._buffers = [
            (
                np.empty(shape + features.shape[1:], dtype=features.dtype),
                np.empty(shape + labels.shape[1:], dtype=labels.dtype),
            )
            for _ in range(threads)
        ]
        # The caller's features; set last, it marks the pass as built.
        self._features_buf = self._buffers[0][0]

    def _gather(self, rows, start: int, stop: int, positions, buffers):
        """Rows ``start:stop``'s batches, in the front of ``buffers``."""
        features = buffers[0][: stop - start]
        labels = buffers[1][: stop - start]
        sources = self._sources
        # ``mode='clip'`` is exact for the always-in-range sampler
        # indices and selects take's unbuffered fast path (the default
        # ``mode='raise'`` with ``out=`` is ~3x slower).
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
        return features, labels

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
        rows the clip rescaled (under a per-example clip, the rows with
        at least one rescaled example).  ``timer`` laps the caller's
        gathers as ``round.sample``, and its share of the pass, the wait
        for the other threads and the clip as ``round.cohort``; the
        other threads never touch it.  The chunks are dealt over the
        pass's threads (see the class docstring); an exception from any
        chunk is raised here after every thread has joined.
        """
        if self._features_buf is None:
            self._build()
        model = self._model
        count = len(rows)
        g_max = self._g_max if positions is None else self._g_max[positions]
        if self._per_example:
            features, labels = self._gather(rows, 0, count, positions, self._buffers[0])
            timer.lap("round.sample")
            per_example = np.stack(
                [
                    model.per_example_gradients(parameters, batch, batch_labels)
                    for batch, batch_labels in zip(features, labels)
                ]
            )  # (k, b, d)
            norms = np.sqrt(np.einsum("wbd,wbd->wb", per_example, per_example))
            safe_norms = np.where(norms > 0.0, norms, 1.0)
            scales = np.minimum(1.0, g_max[:, None] / safe_norms)
            clean[:] = (per_example * scales[:, :, None]).mean(axis=1)
            losses[:] = model.loss_stack(parameters, features, labels)
            timer.lap("round.cohort")
            return int(np.count_nonzero((norms > g_max[:, None]).any(axis=1)))
        chunk = self._chunk
        chunks = -(-count // chunk)

        def chunk_pass(item: int, thread: int) -> None:
            phases = timer if thread == 0 else NULL_TIMER
            start = item * chunk
            stop = min(start + chunk, count)
            features, labels = self._gather(
                rows, start, stop, positions, self._buffers[thread]
            )
            phases.lap("round.sample")
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
            phases.lap("round.cohort")

        _deal(chunks, len(self._buffers), chunk_pass)
        # The clip's lap below also charges the wait for the threads.
        norms = np.sqrt(np.einsum("wd,wd->w", clean, clean))
        exceeds = norms > g_max  # all-zero rows have norm 0 <= g_max
        clipped = 0
        if exceeds.any():
            clean[exceeds] *= (g_max[exceeds] / norms[exceeds])[:, None]
            clipped = int(np.count_nonzero(exceeds))
        timer.lap("round.cohort")
        return clipped

    def draw_noise(
        self, noise: np.ndarray, positions: Sequence[int] | None = None
    ) -> None:
        """DP noise for ``len(noise)`` rounds: ``noise[:, j]`` takes the
        rows of the worker at position ``positions[j]`` (every worker in
        order when ``positions`` is ``None``), one
        :meth:`~NoiseMechanism.sample_noise_block` per noised worker from
        its own stream.  Rows without a mechanism are left as they were.

        A block of at least ``_GATHER_BYTES`` (the fused engine's
        pre-draw at large d) whose noised rows each own their generator's
        bit generator is drawn over ``min(CPUs, 2, rows)`` threads (as the
        pass's chunks are), joined before this returns: each stream is
        read by one thread only, so its values are the same.  Any other
        block is drawn in row order on the caller, so streams that share
        a bit generator are read in worker order.  Mechanisms, like
        models, are stateless, so two threads may call one mechanism at
        once.
        """
        rounds, count, dimension = noise.shape
        if positions is None:
            positions = range(count)
        threads = 1
        if noise.nbytes >= _GATHER_BYTES:
            streams = [
                id(self._noise_rngs[position].bit_generator)
                for position in positions
                if self._mechanisms[position] is not None
            ]
            if len(set(streams)) == len(streams):
                threads = _threads()

        def draw(row: int, thread: int) -> None:
            position = positions[row]
            mechanism = self._mechanisms[position]
            if mechanism is not None:
                noise[:, row] = mechanism.sample_noise_block(
                    rounds, dimension, self._noise_rngs[position]
                )

        _deal(count, threads, draw)

    def finish(
        self,
        clean: Matrix,
        submitted: Matrix,
        noise: Matrix | None,
        positions: Sequence[int] | None = None,
        timer=NULL_TIMER,
    ) -> None:
        """The round's epilogue on the rows :meth:`run` wrote, in place.

        Rows map to workers as in :meth:`run`.  ``submitted`` takes each
        noised row's ``clean + noise`` and every other row's clean row
        (lapped as ``round.noise``).  Then each momentum worker's two
        velocity rows take ``v <- m*v; v <- v + g`` of its submitted and
        clean rows and replace them (lapped as ``round.momentum``).
        """
        index = slice(None) if positions is None else positions
        noised = self._noised[index]
        if noised.all():
            np.add(clean, noise, out=submitted)
        else:
            submitted[:] = clean
            for row in np.flatnonzero(noised):
                np.add(clean[row], noise[row], out=submitted[row])
        timer.lap("round.noise")
        if self._velocity is None:
            return
        momenta = self._momenta[index]
        velocity = self._velocity[:, index]
        velocity *= momenta[:, None]
        velocity[0] += submitted
        velocity[1] += clean
        if positions is not None:
            self._velocity[:, positions] = velocity
        kept = (momenta > 0.0)[:, None]
        np.copyto(submitted, velocity[0], where=kept)
        np.copyto(clean, velocity[1], where=kept)
        timer.lap("round.momentum")


def _cohort_pass(workers: list[HonestWorker]):
    """The pass serving ``workers`` and their positions in it: the pass
    that owns them (positions ``None`` when they are all of its workers,
    in order), or a new one over exactly these workers."""
    slots = [worker._cohort_slot for worker in workers]
    owner = slots[0] and slots[0][0]
    if owner is not None and all(slot and slot[0] is owner for slot in slots):
        positions = [slot[1] for slot in slots]
        if positions == list(range(len(owner._g_max))):
            positions = None
        return owner, positions
    return CohortPass(workers), None


def compute_cohort(
    workers: Sequence[HonestWorker], parameters: Vector, step: int
) -> tuple[Matrix, Matrix, np.ndarray]:
    """Run one round of the whole honest cohort as stacked matrix ops.

    Returns ``(submitted, clean, losses)``: the ``(W, d)`` matrices of
    each worker's wire vector and clipped, noise-free gradient (both
    momentum vectors when the worker keeps momentum), and each worker's
    batch loss at ``parameters``, the paper's training-loss sample
    (Section 5.1).  Every array is new: results of earlier rounds stay
    as they were.

    Each worker draws its batch indices in worker order
    (:meth:`BatchSampler.sample_index_block`) and records them as its
    ``last_batch``; the workers' :class:`CohortPass` gathers,
    differentiates and clips every batch (built here over exactly these
    workers when no owner built one, and refused like an owner's).  Each
    noised worker then draws one row of noise in worker order, so every
    private RNG stream is consumed in worker order, and the pass's
    :meth:`~CohortPass.finish` adds the noise and updates momentum.
    """
    workers = list(workers)
    if not workers:
        raise ConfigurationError("compute_cohort needs at least one worker")
    del step  # the pipeline is step-independent
    cohort, positions = _cohort_pass(workers)
    rows = np.concatenate(
        [worker._sampler.sample_index_block(1) for worker in workers]
    )
    for worker, worker_rows in zip(workers, rows):
        worker._last_batch = (worker._sampler.dataset, worker_rows)
    losses = np.empty(len(workers))
    clean = np.empty((len(workers), len(parameters)))
    cohort.run(parameters, rows, losses, clean, positions)
    noise = np.empty((1,) + clean.shape)
    cohort.draw_noise(noise, positions)
    submitted = np.empty_like(clean)
    cohort.finish(clean, submitted, noise[0], positions)
    return submitted, clean, losses
