"""The pre-fusion synchronous round loop, kept verbatim as a test oracle.

This module preserves the round execution path exactly as it ran
before the fused :class:`repro.distributed.engine.RoundEngine` landed:
per-round batch sampling and noise draws, a fresh ``(W, d)`` cohort
allocation every round, stacked-then-copied momentum buffers, a
defensive ``parameters`` copy per read, and an allocating optimizer
update.  It exists for one purpose — :mod:`tests.test_engine_fused`
asserts the engine is bit-identical to *this* code
(``test_fused_equals_reference_loop``, ``TestSigmoidEquivalence``), the
same way the GAR property tests check the vectorized kernels against
:mod:`tests.reference_gars` — so its body should never be "improved".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.base import AttackContext
from repro.exceptions import ConfigurationError
from repro.gars.krum import KrumGAR, krum_scores
from repro.metrics.history import TrainingHistory
from repro.models.base import Model
from repro.models.linear import LinearRegressionModel
from repro.models.logistic import LogisticRegressionModel
from repro.privacy.clipping import clip_by_l2_norm, clip_per_example
from repro.typing import Matrix, Vector

__all__ = ["reference_compute_cohort", "reference_training_rounds"]


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """Verbatim pre-fusion sigmoid (boolean-masked two-branch form)."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def _reference_gradient_stack(model, parameters, features_stack, labels_stack):
    """Pre-fusion stacked gradient: per-round augmentation, branchy
    sigmoid, no shared forward pass."""
    if isinstance(model, LogisticRegressionModel):
        parameters = model._check_parameters(parameters)
        labels_stack = np.asarray(labels_stack, dtype=np.float64)
        augmented = model._augment_stack(features_stack)
        probabilities = _reference_sigmoid(augmented @ parameters)
        factor = model._residual_factor(probabilities, labels_stack)
        return np.einsum("wbd,wb->wd", augmented, factor) / labels_stack.shape[1]
    if isinstance(model, LinearRegressionModel):
        parameters = model._check_parameters(parameters)
        labels_stack = np.asarray(labels_stack, dtype=np.float64)
        augmented = model._augment_stack(features_stack)
        residuals = augmented @ parameters - labels_stack
        return np.einsum("wbd,wb->wd", augmented, residuals) / labels_stack.shape[1]
    return model.gradient_stack(parameters, features_stack, labels_stack)


def _reference_loss_stack(model, parameters, features_stack, labels_stack):
    """Pre-fusion stacked loss: its own full forward pass."""
    if isinstance(model, LogisticRegressionModel):
        parameters = model._check_parameters(parameters)
        labels_stack = np.asarray(labels_stack, dtype=np.float64)
        probabilities = _reference_sigmoid(
            model._augment_stack(features_stack) @ parameters
        )
        if model._loss_kind == "mse":
            return np.mean((probabilities - labels_stack) ** 2, axis=1)
        eps = 1e-12
        clipped = np.clip(probabilities, eps, 1.0 - eps)
        return -np.mean(
            labels_stack * np.log(clipped)
            + (1.0 - labels_stack) * np.log(1.0 - clipped),
            axis=1,
        )
    return model.loss_stack(parameters, features_stack, labels_stack)


def _reference_rank_by_score_then_value(scores, gradients):
    """Verbatim pre-fusion tie-ranking: every exact-tie run lexsorted,
    no identical-row shortcut, no winner-only selection."""
    scores = np.asarray(scores)
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    ties = np.flatnonzero(ranked[1:] == ranked[:-1])
    if ties.size:
        run_starts = ties[np.r_[True, np.diff(ties) > 1]]
        for start in run_starts:
            stop = start + 1
            while stop < len(ranked) and ranked[stop] == ranked[start]:
                stop += 1
            block = order[start:stop]
            rows = gradients[block]
            order[start:stop] = block[np.lexsort(rows.T[::-1])]
    return order


def _reference_aggregate(gar, matrix: Matrix) -> Vector:
    """Pre-fusion aggregation: the wrapper's validations plus, for the
    Krum family, the full tie-ranking path."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(matrix)):
        raise ConfigurationError(f"{gar.name} received non-finite gradients")
    if isinstance(gar, KrumGAR):
        scores = krum_scores(matrix, gar.f)
        order = _reference_rank_by_score_then_value(scores, matrix)
        if gar.m == 1:
            return matrix[int(order[0])].copy()
        return matrix[order[: gar.m]].mean(axis=0)
    return gar._aggregate(matrix)


def _reference_finish(worker, parameters: Vector, features, labels):
    """Verbatim pre-fusion ``HonestWorker._finish``: gradient + clip +
    noise + momentum with the historical per-round copies."""
    if worker._clip_mode == "per_example" and worker._g_max is not None:
        per_example = worker._model.per_example_gradients(parameters, features, labels)
        gradient = clip_per_example(per_example, worker._g_max).mean(axis=0)
    else:
        gradient = worker._model.gradient(parameters, features, labels)
        if worker._g_max is not None:
            gradient = clip_by_l2_norm(gradient, worker._g_max)

    clean = np.array(gradient, dtype=np.float64, copy=True)
    if worker._mechanism is not None:
        noisy = worker._mechanism.privatize(clean, worker._noise_rng)
    else:
        noisy = clean.copy()

    if worker._momentum > 0.0:
        if worker._velocity_submitted is None:
            worker._velocity_submitted = np.zeros_like(noisy)
            worker._velocity_clean = np.zeros_like(clean)
        worker._velocity_submitted = worker._momentum * worker._velocity_submitted + noisy
        worker._velocity_clean = worker._momentum * worker._velocity_clean + clean
        return worker._velocity_submitted.copy(), worker._velocity_clean.copy()
    return noisy, clean


def reference_compute_cohort(
    workers: Sequence, parameters: Vector, step: int
) -> tuple[Matrix, Matrix]:
    """Verbatim pre-fusion ``compute_cohort``: stacked gradients with
    per-round allocations, full-matrix ``np.where`` momentum epilogue
    and per-worker velocity copies."""
    workers = list(workers)
    if not workers:
        raise ConfigurationError("reference_compute_cohort needs at least one worker")
    del step
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
            _reference_finish(worker, parameters, *batch)
            for worker, batch in zip(workers, batches)
        ]
        return (
            np.stack([submitted for submitted, _ in submissions]),
            np.stack([clean for _, clean in submissions]),
        )

    features_stack = np.stack([features for features, _ in batches])
    labels_stack = np.stack([labels for _, labels in batches])
    if clip_mode == "per_example":
        per_example = np.stack(
            [
                model.per_example_gradients(parameters, features, labels)
                for features, labels in batches
            ]
        )
        norms = np.sqrt(np.einsum("wbd,wbd->wb", per_example, per_example))
        safe_norms = np.where(norms > 0.0, norms, 1.0)
        g_max = np.array([w._g_max for w in workers])
        scales = np.minimum(1.0, g_max[:, None] / safe_norms)
        clean = (per_example * scales[:, :, None]).mean(axis=1)
    else:
        clean = np.array(
            _reference_gradient_stack(model, parameters, features_stack, labels_stack),
            dtype=np.float64,
        )
        g_max = np.array(
            [np.inf if w._g_max is None else w._g_max for w in workers]
        )
        norms = np.sqrt(np.einsum("wd,wd->w", clean, clean))
        exceeds = norms > g_max
        if exceeds.any():
            clean[exceeds] *= (g_max[exceeds] / norms[exceeds])[:, None]

    submitted = clean.copy()
    for index, worker in enumerate(workers):
        if worker._mechanism is not None:
            submitted[index] = worker._mechanism.privatize(
                clean[index], worker._noise_rng
            )

    momenta = np.array([w._momentum for w in workers])
    with_momentum = momenta > 0.0
    if with_momentum.any():
        dimension = clean.shape[1]
        velocity_submitted = np.stack(
            [
                w._velocity_submitted
                if w._velocity_submitted is not None
                else np.zeros(dimension)
                for w in workers
            ]
        )
        velocity_clean = np.stack(
            [
                w._velocity_clean
                if w._velocity_clean is not None
                else np.zeros(dimension)
                for w in workers
            ]
        )
        velocity_submitted = momenta[:, None] * velocity_submitted + submitted
        velocity_clean = momenta[:, None] * velocity_clean + clean
        for index, worker in enumerate(workers):
            if with_momentum[index]:
                worker._velocity_submitted = velocity_submitted[index].copy()
                worker._velocity_clean = velocity_clean[index].copy()
        submitted = np.where(with_momentum[:, None], velocity_submitted, submitted)
        clean = np.where(with_momentum[:, None], velocity_clean, clean)
    return submitted, clean


def _reference_optimizer_step(optimizer, parameters: Vector, gradient: Vector) -> Vector:
    """Verbatim pre-fusion allocating heavy-ball update."""
    from repro.exceptions import TrainingError

    parameters = np.asarray(parameters, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    optimizer._step_count += 1
    rate = optimizer._schedule.rate(optimizer._step_count)
    if optimizer._velocity is None:
        optimizer._velocity = np.zeros_like(parameters)
    optimizer._velocity = optimizer._momentum * optimizer._velocity + gradient
    if optimizer._nesterov:
        direction = optimizer._momentum * optimizer._velocity + gradient
    else:
        direction = optimizer._velocity
    updated = parameters - rate * direction
    if not np.all(np.isfinite(updated)):
        raise TrainingError(
            f"parameters became non-finite at step {optimizer._step_count}; "
            "the training has diverged"
        )
    return updated


def reference_training_rounds(
    cluster,
    model: Model,
    history: TrainingHistory,
    num_rounds: int,
) -> None:
    """Run ``num_rounds`` synchronous rounds the pre-fusion way.

    Replicates the historical ``TrainingLoop.run`` round body exactly:
    a ``parameters`` copy per round, :func:`reference_compute_cohort`,
    fresh per-round instrumentation matrices, an allocating server
    update, and the honest-batch loss recorded through the same stacked
    pipeline.  Drives the *same* cluster components as the engine, so a
    test can run both on identically seeded experiments and assert the
    outputs agree bit for bit.
    """
    if num_rounds < 1:
        raise ConfigurationError(f"num_rounds must be >= 1, got {num_rounds}")
    from repro.distributed.cluster import StepResult
    from repro.pipeline.callbacks import CallbackList

    server = cluster._server
    workers = cluster._honest_workers
    network = cluster._network
    # The historical loop scaffolding: an (empty) callback list whose
    # hooks fire every round, and a StepResult carrying the matrices.
    callbacks = CallbackList()
    state = None
    for _ in range(num_rounds):
        callbacks.should_stop(state)
        callbacks.on_step_start(state)
        cluster._step += 1
        step = cluster._step
        parameters = server.parameters
        submitted, clean = reference_compute_cohort(workers, parameters, step)
        byzantine = None
        if cluster._num_byzantine > 0:
            context = AttackContext(
                step=step,
                honest_submitted=submitted,
                honest_clean=clean,
                parameters=parameters,
                num_byzantine=cluster._num_byzantine,
                rng=cluster._attack_rng,
            )
            byzantine = np.asarray(cluster._attack.craft(context), dtype=np.float64)
            byzantine_block = np.tile(byzantine, (cluster._num_byzantine, 1))
            all_gradients = np.vstack([submitted, byzantine_block])
        else:
            all_gradients = submitted
        delivered = network.deliver(all_gradients, step)
        matrix = np.asarray(delivered, dtype=np.float64)
        aggregated = _reference_aggregate(server._gar, matrix)
        server._parameters = _reference_optimizer_step(
            server._optimizer, server._parameters, aggregated
        )
        server._step += 1
        result = StepResult(
            step=step,
            aggregated=aggregated,
            honest_submitted=submitted,
            honest_clean=clean,
            byzantine_gradient=byzantine,
        )
        # record_honest_loss, verbatim: gather the cached batches, check
        # their shapes are uniform, then one stacked loss pass.
        batches = [w.last_batch for w in workers if w.last_batch is not None]
        shapes = {
            (np.asarray(features).shape, np.asarray(labels).shape)
            for features, labels in batches
        }
        assert len(shapes) == 1
        losses = _reference_loss_stack(
            model,
            parameters,
            np.stack([features for features, _ in batches]),
            np.stack([labels for _, labels in batches]),
        )
        history.record_loss(step, float(np.mean(losses)))
        callbacks.on_step_end(state, result)
