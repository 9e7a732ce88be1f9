"""Tests for the honest worker pipeline, one worker at a time."""

import numpy as np
import pytest

from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.distributed.worker import HonestWorker, compute_cohort
from repro.exceptions import ConfigurationError
from repro.models.linear import LinearRegressionModel
from repro.privacy.mechanisms import GaussianMechanism
from repro.rng import generator_from_seed


def make_worker(g_max=None, mechanism=None, clip_mode="batch", momentum=0.0, seed=0):
    rng = np.random.default_rng(3)
    dataset = Dataset(features=rng.standard_normal((50, 4)), labels=rng.standard_normal(50))
    model = LinearRegressionModel(4)
    sampler = BatchSampler(dataset, 10, generator_from_seed(seed))
    worker = HonestWorker(
        worker_id=0,
        model=model,
        sampler=sampler,
        noise_rng=generator_from_seed(seed + 100),
        g_max=g_max,
        mechanism=mechanism,
        clip_mode=clip_mode,
        momentum=momentum,
    )
    return worker, model


def run(worker, parameters, step=1):
    """One round of ``worker`` alone: its ``(submitted, clean)`` vectors."""
    submitted, clean, _ = compute_cohort([worker], parameters, step)
    return submitted[0], clean[0]


class TestHonestWorker:
    def test_no_dp_submitted_equals_clean(self):
        worker, model = make_worker()
        submitted, clean = run(worker, np.zeros(model.dimension))
        assert np.array_equal(submitted, clean)

    def test_clipping_enforced(self):
        worker, model = make_worker(g_max=1e-3)
        w = 100.0 * np.ones(model.dimension)  # big residuals -> big gradient
        _, clean = run(worker, w)
        assert np.linalg.norm(clean) <= 1e-3 * (1 + 1e-9)

    def test_noise_applied_when_mechanism_present(self):
        mechanism = GaussianMechanism.for_clipped_gradients(0.5, 1e-6, 0.01, 10)
        worker, model = make_worker(g_max=0.01, mechanism=mechanism)
        submitted, clean = run(worker, np.zeros(model.dimension))
        assert not np.array_equal(submitted, clean)

    def test_mechanism_requires_g_max(self):
        mechanism = GaussianMechanism.for_clipped_gradients(0.5, 1e-6, 0.01, 10)
        with pytest.raises(ConfigurationError, match="g_max"):
            make_worker(mechanism=mechanism)

    def test_clean_view_never_contains_noise(self):
        mechanism = GaussianMechanism.for_clipped_gradients(0.5, 1e-6, 0.01, 10)
        noisy_worker, model = make_worker(g_max=0.01, mechanism=mechanism, seed=7)
        plain_worker, _ = make_worker(g_max=0.01, seed=7)
        _, noisy_clean = run(noisy_worker, np.zeros(model.dimension))
        _, plain_clean = run(plain_worker, np.zeros(model.dimension))
        assert np.allclose(noisy_clean, plain_clean)

    def test_per_example_mode_bounds_gradient(self):
        worker, model = make_worker(g_max=1e-3, clip_mode="per_example")
        w = 100.0 * np.ones(model.dimension)
        _, clean = run(worker, w)
        # Mean of per-example-clipped gradients is itself bounded.
        assert np.linalg.norm(clean) <= 1e-3 * (1 + 1e-9)

    def test_invalid_clip_mode(self):
        with pytest.raises(ConfigurationError, match="clip_mode"):
            make_worker(clip_mode="magic")

    def test_invalid_momentum(self):
        with pytest.raises(ConfigurationError, match="momentum"):
            make_worker(momentum=1.0)

    def test_last_batch_recorded(self):
        worker, model = make_worker()
        assert worker.last_batch is None
        run(worker, np.zeros(model.dimension))
        features, labels = worker.last_batch
        assert features.shape == (10, 4)
        assert labels.shape == (10,)

    def test_momentum_accumulates_submissions(self):
        """With momentum m the submission is sum of m^k past gradients."""
        worker, model = make_worker(momentum=0.5, seed=11)
        reference, _ = make_worker(momentum=0.0, seed=11)
        w = np.zeros(model.dimension)
        expected = np.zeros(model.dimension)
        for step in range(1, 4):
            _, gradient = run(reference, w, step)
            expected = 0.5 * expected + gradient
            submitted, _ = run(worker, w, step)
            assert np.allclose(submitted, expected)

    def test_momentum_submission_can_exceed_g_max(self):
        """The momentum buffer is NOT re-clipped (it can reach
        G_max / (1 - m)); only the per-step gradient is clipped."""
        worker, model = make_worker(g_max=1e-4, momentum=0.9)
        w = 100.0 * np.ones(model.dimension)
        for step in range(1, 60):
            submitted, _ = run(worker, w, step)
        assert np.linalg.norm(submitted) > 1e-4

    def test_reset_clears_state(self):
        worker, model = make_worker(momentum=0.9)
        run(worker, np.zeros(model.dimension))
        worker.reset()
        assert worker.last_batch is None

    def test_uses_dp_property(self):
        mechanism = GaussianMechanism.for_clipped_gradients(0.5, 1e-6, 0.01, 10)
        with_dp, _ = make_worker(g_max=0.01, mechanism=mechanism)
        without, _ = make_worker()
        assert with_dp.uses_dp
        assert not without.uses_dp

    def test_deterministic_given_seeds(self):
        a, model = make_worker(seed=9)
        b, _ = make_worker(seed=9)
        w = np.ones(model.dimension)
        assert np.array_equal(run(a, w)[0], run(b, w)[0])
