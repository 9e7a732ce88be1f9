"""Hypothesis properties for the fused engine's blockwise RNG pre-draw.

The fused round engine is only sound because a block draw consumes a
``numpy.random.Generator`` stream exactly as the sequential per-round
draws would.  These properties pin that equivalence for both DP
mechanisms and both sampler modes — including the *generator end
state* (the draw after the block must match the draw after the
sequential calls), which is what guarantees later rounds stay aligned.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.distributed.engine import default_block_rounds
from repro.privacy.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.rng import SeedTree


def _gaussian(sensitivity=0.004):
    return GaussianMechanism(epsilon=0.5, delta=1e-6, l2_sensitivity=sensitivity)


def _laplace(sensitivity=0.02):
    return LaplaceMechanism(epsilon=0.7, l1_sensitivity=sensitivity)


def _generators(seed):
    tree = SeedTree(seed)
    return tree.generator("a"), tree.generator("a")


class TestNoiseBlockEquivalence:
    @given(
        kind=st.sampled_from(["gaussian", "laplace"]),
        rounds=st.integers(1, 20),
        dimension=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_matches_sequential_draws(self, kind, rounds, dimension, seed):
        mechanism = _gaussian() if kind == "gaussian" else _laplace()
        block_rng, seq_rng = _generators(seed)
        block = mechanism.sample_noise_block(rounds, dimension, block_rng)
        sequential = np.stack(
            [mechanism.sample_noise(dimension, seq_rng) for _ in range(rounds)]
        )
        assert block.shape == (rounds, dimension)
        assert block.tolist() == sequential.tolist()  # bit-identical
        # End states agree: the next draw is identical on both streams.
        assert block_rng.standard_normal() == seq_rng.standard_normal()

    def test_base_class_fallback_is_sequential(self):
        class Custom(GaussianMechanism):
            # Overriding sample_noise drops to the base block loop.
            def sample_noise(self, dimension, rng):
                return rng.random(dimension)

        mechanism = Custom(epsilon=0.5, delta=1e-6, l2_sensitivity=1.0)
        block_rng, seq_rng = _generators(5)
        block = mechanism.sample_noise_block(4, 7, block_rng)
        sequential = np.stack([mechanism.sample_noise(7, seq_rng) for _ in range(4)])
        assert block.tolist() == sequential.tolist()

    def test_rejects_invalid_rounds(self):
        from repro.exceptions import PrivacyError

        rng = np.random.default_rng(0)
        for mechanism in (_gaussian(), _laplace()):
            with pytest.raises(PrivacyError, match="rounds"):
                mechanism.sample_noise_block(0, 3, rng)


def _dataset(num_points):
    rng = np.random.default_rng(123)
    return Dataset(
        features=rng.standard_normal((num_points, 3)),
        labels=rng.integers(0, 2, num_points).astype(np.float64),
        name="block-draw",
    )


class TestIndexBlockEquivalence:
    @given(
        replace=st.booleans(),
        rounds=st.integers(1, 20),
        num_points=st.integers(2, 120),
        seed=st.integers(0, 2**32 - 1),
        batch_data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_matches_sequential_draws(
        self, replace, rounds, num_points, seed, batch_data
    ):
        batch_size = batch_data.draw(st.integers(1, num_points), label="batch_size")
        dataset = _dataset(num_points)
        block_rng, seq_rng = _generators(seed)
        block_sampler = BatchSampler(
            dataset, batch_size, block_rng, replace_within_batch=replace
        )
        seq_sampler = BatchSampler(
            dataset, batch_size, seq_rng, replace_within_batch=replace
        )
        block = block_sampler.sample_index_block(rounds)
        sequential = np.stack(
            [seq_sampler.sample_indices() for _ in range(rounds)]
        )
        assert block.shape == (rounds, batch_size)
        assert block.tolist() == sequential.tolist()
        assert block_rng.standard_normal() == seq_rng.standard_normal()

    def test_rejects_invalid_rounds(self):
        from repro.exceptions import DataError

        sampler = BatchSampler(_dataset(10), 3, np.random.default_rng(0))
        with pytest.raises(DataError, match="rounds"):
            sampler.sample_index_block(0)


class TestBlockwiseLossMeans:
    @given(
        rounds=st.integers(1, 40),
        workers=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_axis_mean_matches_per_round_mean(self, rounds, workers, seed):
        """The engine's deferred block reduction == per-round np.mean."""
        block = np.random.default_rng(seed).standard_normal((rounds, workers))
        per_round = [float(np.mean(block[r])) for r in range(rounds)]
        blockwise = [float(v) for v in block.mean(axis=1)]
        assert per_round == blockwise


class TestInPlaceOptimizerEquivalence:
    @given(
        momentum=st.sampled_from([0.0, 0.5, 0.99]),
        nesterov=st.booleans(),
        steps=st.integers(1, 10),
        dimension=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_out_path_bit_identical(self, momentum, nesterov, steps, dimension, seed):
        from repro.optim.sgd import SGDOptimizer

        if nesterov and momentum == 0.0:
            momentum = 0.5
        rng = np.random.default_rng(seed)
        gradients = rng.standard_normal((steps, dimension))
        start = rng.standard_normal(dimension)

        allocating = SGDOptimizer(0.3, momentum=momentum, nesterov=nesterov)
        params_a = start.copy()
        for gradient in gradients:
            params_a = allocating.step(params_a, gradient)

        in_place = SGDOptimizer(0.3, momentum=momentum, nesterov=nesterov)
        params_b = start.copy()
        for gradient in gradients:
            returned = in_place.step(params_b, gradient, out=params_b)
            assert returned is params_b
        assert params_a.tolist() == params_b.tolist()


class TestSelectBestEquivalence:
    @given(
        n=st.integers(2, 20),
        dimension=st.integers(1, 8),
        duplicates=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_ranking_head(self, n, dimension, duplicates, seed):
        from repro.gars.kernels import (
            rank_by_score_then_value,
            select_best_by_score_then_value,
        )

        rng = np.random.default_rng(seed)
        gradients = rng.standard_normal((n, dimension))
        # Quantized scores force exact ties; duplicated rows force the
        # identical-run shortcut.
        scores = np.round(rng.standard_normal(n), 1)
        for _ in range(min(duplicates, n - 1)):
            i, j = rng.integers(0, n, 2)
            gradients[i] = gradients[j]
            scores[i] = scores[j]
        order = rank_by_score_then_value(scores, gradients)
        assert select_best_by_score_then_value(scores, gradients) == int(order[0])


def test_default_block_rounds_bounds():
    assert default_block_rounds(25, 100, 50, 25) >= 1
    assert default_block_rounds(10, 10_000_000, 50, 10) == 1
    assert default_block_rounds(1, 1, 1, 0) == 256
