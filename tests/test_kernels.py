"""Unit tests for the vectorized aggregation engine (repro.gars.kernels)."""

from itertools import combinations

import numpy as np
import pytest

from repro.exceptions import AggregationError
from repro.gars import get_gar, kernels
from repro.gars.kernels import (
    geometric_median,
    krum_scores_from_sq_distances,
    mda_aggregate,
    pairwise_sq_distances,
)
from repro.gars.krum import krum_scores
from tests.helpers import random_gradient_matrix
from tests.reference_gars import geometric_median_reference, mda_aggregate_reference


class TestPairwiseSqDistances:
    def test_matches_direct_computation(self):
        gradients = random_gradient_matrix(7, 5, seed=0)
        distances = pairwise_sq_distances(gradients)
        for i in range(7):
            for j in range(7):
                exact = float(np.sum((gradients[i] - gradients[j]) ** 2))
                assert distances[i, j] == pytest.approx(exact, rel=1e-12, abs=1e-300)

    def test_symmetric_zero_diagonal(self):
        distances = pairwise_sq_distances(random_gradient_matrix(6, 4, seed=1))
        assert np.array_equal(distances, distances.T)
        assert np.all(np.diag(distances) == 0.0)

    def test_exact_for_duplicate_rows(self):
        """Duplicate rows must yield exactly zero, not cancellation noise."""
        row = random_gradient_matrix(1, 9, seed=2, center=1000.0)[0]
        gradients = np.stack([row, row, row + 1.0])
        distances = pairwise_sq_distances(gradients)
        assert distances[0, 1] == 0.0
        assert distances[1, 0] == 0.0
        assert distances[0, 2] > 0.0

    def test_exact_for_near_duplicate_rows(self):
        """The Gram expansion loses all digits on near-duplicates at a
        large offset; the hybrid kernel recomputes them exactly."""
        base = np.full(4, 1e6)
        delta = 1e-7
        gradients = np.stack([base, base + delta, base + 1.0])
        distances = pairwise_sq_distances(gradients)
        exact = 4 * delta**2
        assert distances[0, 1] == pytest.approx(exact, rel=1e-9)
        # The pure Gram expansion is catastrophically wrong here —
        # prove the fallback actually changed the answer.
        sq_norms = np.sum(gradients**2, axis=1)
        gram = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (gradients @ gradients.T)
        assert not np.isclose(np.maximum(gram, 0.0)[0, 1], exact, rtol=0.5, atol=0.0)

    def test_rejects_bad_rank(self):
        with pytest.raises(AggregationError):
            pairwise_sq_distances(np.zeros(3))

    def test_rejects_stack(self):
        """A kernel takes one round's (n, d) matrix, never a stack."""
        with pytest.raises(AggregationError, match=r"\(n, d\)"):
            pairwise_sq_distances(np.zeros((2, 4, 3)))


def _attacked(d, seed=0, n=25, f=11):
    """An attacked round's matrix: ``n - f`` distinct honest rows, then
    the ``f`` copies of one crafted row."""
    rng = np.random.default_rng(seed)
    gradients = rng.standard_normal((n, d))
    gradients[n - f :] = rng.standard_normal(d)
    return gradients


def _with_zero_rows(gradients):
    gradients[[1, 4, 6]] = 0.0  # dropped messages
    return gradients


def _with_infinite_row(gradients):
    # Row 3's +inf against row 5's negative entry is an unreliable pair.
    gradients[3, 0] = np.inf
    gradients[5, 0] = -1.0
    return gradients


def _with_near_duplicate(gradients):
    gradients[2] = gradients[0] + 1e-9 * gradients[1]
    return gradients


class TestIdenticalRowSkip:
    """When every unreliable pair joins two identical finite rows (the f
    Byzantine copies), ``pairwise_sq_distances`` writes +0.0 for them
    without the exact path: bit for bit what the exact path returns."""

    @staticmethod
    def _skipped_and_exact(monkeypatch, gradients):
        verdicts = []
        check = kernels._identical_pairs

        def spy(*args):
            verdicts.append(check(*args))
            return verdicts[-1]

        monkeypatch.setattr(kernels, "_identical_pairs", spy)
        skipped = pairwise_sq_distances(gradients)
        monkeypatch.setattr(kernels, "_IDENTICAL_SKIP_FLOATS", np.inf)  # out of reach
        exact = pairwise_sq_distances(gradients)
        return skipped, exact, verdicts

    @pytest.mark.parametrize(
        "damage, skipped",
        [
            (lambda gradients: gradients, True),
            (_with_zero_rows, True),
            (_with_infinite_row, False),
            (_with_near_duplicate, False),
        ],
        ids=["identical-rows", "zero-rows", "infinite-row", "near-duplicate"],
    )
    @pytest.mark.parametrize("d", [10_001, 2_000])
    def test_equals_the_exact_path(self, monkeypatch, damage, skipped, d):
        gradients = damage(_attacked(d))
        with np.errstate(invalid="ignore"):  # inf - inf in the Gram expansion
            got, exact, verdicts = self._skipped_and_exact(monkeypatch, gradients)
        assert verdicts == [skipped]
        assert got.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("d", [100, 69])
    def test_small_shapes_keep_the_exact_path(self, monkeypatch, d):
        """``fused-krum``'s 55 pairs at d = 100 and ``paper-figure2``'s
        MDA (n = 11, f = 5) stay below the gate."""
        _, _, verdicts = self._skipped_and_exact(monkeypatch, _attacked(d))
        assert verdicts == []
        _, _, verdicts = self._skipped_and_exact(monkeypatch, _attacked(d, n=11, f=5))
        assert verdicts == []


class TestKrumNearDuplicateRegression:
    """The latent krum_scores inaccuracy: near-duplicate rows used to
    score Gram cancellation noise instead of their true distances."""

    def test_duplicate_heavy_cluster_scores_exactly(self):
        base = np.full(6, 1e6)
        gradients = np.stack([base, base, base, base + 1e-7, base + 50.0])
        scores = krum_scores(gradients, f=1)
        # Each of rows 0-2 has neighbours {the two other duplicates}
        # at distance 0: their scores must be *exactly* the tiny
        # distance sums, with no noise floor.
        neighbours = 5 - 1 - 2  # n - f - 2 = 2
        for i in range(3):
            exact = sorted(
                float(np.sum((gradients[i] - gradients[j]) ** 2))
                for j in range(5)
                if j != i
            )
            assert scores[i] == pytest.approx(sum(exact[:neighbours]), rel=1e-9)
        assert scores[0] == 0.0  # two exact-duplicate neighbours

    def test_krum_picks_inside_duplicate_cluster(self):
        """With an offset cluster of near-duplicates, Krum must select a
        cluster member; Gram noise used to make the scores garbage."""
        base = np.full(8, 5e5)
        rng = np.random.default_rng(4)
        cluster = base + 1e-8 * rng.standard_normal((6, 8))
        outliers = base + 100.0 + rng.standard_normal((2, 8))
        gradients = np.vstack([cluster, outliers])
        output = get_gar("krum", 8, 2).aggregate(gradients)
        assert any(np.array_equal(output, row) for row in cluster)


class TestKrumScoresKernel:
    def test_accepts_precomputed_distances(self):
        gradients = random_gradient_matrix(9, 5, seed=5)
        distances = pairwise_sq_distances(gradients)
        direct = krum_scores(gradients, 2)
        via_matrix = krum_scores_from_sq_distances(distances, 2)
        assert np.array_equal(direct, via_matrix)

    def test_too_few_neighbours_rejected(self):
        distances = pairwise_sq_distances(random_gradient_matrix(5, 3, seed=6))
        with pytest.raises(AggregationError):
            krum_scores_from_sq_distances(distances, 3)

    def test_does_not_mutate_input(self):
        distances = pairwise_sq_distances(random_gradient_matrix(7, 3, seed=7))
        copy = distances.copy()
        krum_scores_from_sq_distances(distances, 1)
        assert np.array_equal(distances, copy)


class TestGeometricMedianBatch:
    """:func:`geometric_median`, one (n, d) matrix per call."""

    def test_matches_reference_per_slice(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((5, 9, 6))
        for points in stack:
            reference = geometric_median_reference(points)
            assert np.allclose(geometric_median(points), reference, atol=1e-7)

    def test_mixed_convergence_speeds(self):
        """A matrix of identical rows stops after one iteration and one
        of spread rows after many; each lands on its own median."""
        rng = np.random.default_rng(9)
        easy = np.tile(rng.standard_normal(4), (7, 1))  # converges instantly
        hard = rng.standard_normal((7, 4)) * 100.0
        assert np.allclose(geometric_median(easy), easy[0], atol=1e-9)
        assert np.allclose(geometric_median(easy + 3.0), easy[0] + 3.0, atol=1e-9)
        assert np.allclose(
            geometric_median(hard), geometric_median_reference(hard), atol=1e-6
        )

    def test_validation(self):
        with pytest.raises(AggregationError):
            geometric_median(np.zeros(3))
        with pytest.raises(AggregationError):
            geometric_median(np.zeros((0, 3)))
        with pytest.raises(AggregationError):
            geometric_median(np.zeros((2, 2)), max_iterations=0)

    def test_rejects_stack(self):
        """A kernel takes one round's (n, d) matrix, never a stack."""
        with pytest.raises(AggregationError, match=r"\(n, d\)"):
            geometric_median(np.zeros((2, 4, 3)))


class TestMDAKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference(self, seed):
        gradients = random_gradient_matrix(9, 4, seed=seed)
        assert np.allclose(
            mda_aggregate(gradients, 3),
            mda_aggregate_reference(gradients, 3),
            atol=1e-12,
        )

    def test_tie_broken_by_smallest_mean(self):
        """Two disjoint subsets with identical diameters: the winner is
        the lexicographically smaller mean, independent of order."""
        gradients = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        result = mda_aggregate(gradients, 2)
        assert np.array_equal(result, np.array([0.5, 0.0]))
        flipped = mda_aggregate(gradients[::-1].copy(), 2)
        assert np.array_equal(flipped, result)

    def test_f_zero_is_mean(self):
        gradients = random_gradient_matrix(5, 3, seed=10)
        assert np.array_equal(mda_aggregate(gradients, 0), gradients.mean(axis=0))

    @pytest.fixture
    def one_subset_chunks(self, monkeypatch):
        """Stream every search, one subset per chunk."""
        monkeypatch.setattr(kernels, "_MDA_PLAN_ENTRIES", 0)
        monkeypatch.setattr(kernels, "_MDA_CHUNK_FLOATS", 1)

    def test_streamed_tie_spans_chunks(self, one_subset_chunks):
        """The tied subsets {0, 1} and {2, 3} sit in the first and the
        last of six chunks; in the flipped order the winner is the last."""
        gradients = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        for rows in (gradients, gradients[::-1].copy()):
            assert np.array_equal(mda_aggregate(rows, 2), np.array([0.5, 0.0]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_streamed_matches_reference(self, one_subset_chunks, seed):
        gradients = random_gradient_matrix(9, 4, seed=seed)
        assert np.allclose(
            mda_aggregate(gradients, 3),
            mda_aggregate_reference(gradients, 3),
            atol=1e-12,
        )


class TestMDAPlan:
    """The search plan that mda_aggregate caches per (n, n - f)."""

    def test_plan_tables_are_read_only(self):
        subsets, pairs = kernels._mda_plan(11, 6)
        assert np.array_equal(subsets, list(combinations(range(11), 6)))
        first, second = np.triu_indices(6, 1)
        assert np.array_equal(pairs, subsets[:, first] * 11 + subsets[:, second])
        for table in (subsets, pairs):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_second_call_builds_no_plan(self):
        gradients = random_gradient_matrix(11, 4, seed=11)
        mda_aggregate(gradients, 5)
        before = kernels._mda_plan.cache_info()
        mda_aggregate(gradients, 5)
        after = kernels._mda_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_above_budget_search_streams(self):
        """C(16, 9) subsets of 9 + 36 entries each exceed the budget:
        the search leaves the cache untouched and stays exact."""
        assert 11_440 * 45 > kernels._MDA_PLAN_ENTRIES
        gradients = random_gradient_matrix(16, 3, seed=12)
        before = kernels._mda_plan.cache_info()
        result = mda_aggregate(gradients, 7)
        assert kernels._mda_plan.cache_info() == before
        assert np.allclose(
            result, mda_aggregate_reference(gradients, 7), atol=1e-12
        )
