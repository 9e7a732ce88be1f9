"""Tests for training history and cross-seed aggregation."""

import numpy as np
import pytest

from repro.metrics.aggregate import SeriesStats, aggregate_accuracy, aggregate_losses
from repro.metrics.history import TrainingHistory


def make_history(losses, accuracies=None, accuracy_every=2):
    history = TrainingHistory()
    for step, loss in enumerate(losses, start=1):
        history.record_loss(step, loss)
    if accuracies is not None:
        for index, accuracy in enumerate(accuracies):
            history.record_accuracy(index * accuracy_every, accuracy)
    return history


class TestTrainingHistory:
    def test_arrays(self):
        history = make_history([0.5, 0.4, 0.3])
        assert np.array_equal(history.loss_steps, [1, 2, 3])
        assert np.array_equal(history.losses, [0.5, 0.4, 0.3])

    def test_summary_properties(self):
        history = make_history([0.5, 0.2, 0.3], accuracies=[0.6, 0.9])
        assert history.final_loss == 0.3
        assert history.min_loss == 0.2
        assert history.final_accuracy == 0.9
        assert history.max_accuracy == 0.9
        assert len(history) == 3

    def test_steps_must_increase(self):
        history = make_history([0.5])
        with pytest.raises(ValueError, match="increasing"):
            history.record_loss(1, 0.4)

    def test_accuracy_steps_must_increase(self):
        history = TrainingHistory()
        history.record_accuracy(0, 0.5)
        with pytest.raises(ValueError, match="increasing"):
            history.record_accuracy(0, 0.6)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no losses"):
            TrainingHistory().final_loss

    def test_steps_to_loss(self):
        history = make_history([0.5, 0.4, 0.1, 0.2])
        assert history.steps_to_loss(0.4) == 2
        assert history.steps_to_loss(0.05) is None

    def test_mean_loss_over_last(self):
        history = make_history([1.0, 0.5, 0.3])
        assert history.mean_loss_over_last(2) == pytest.approx(0.4)
        assert history.mean_loss_over_last(10) == pytest.approx(0.6)

    def test_round_trip_dict(self):
        history = make_history([0.5, 0.4], accuracies=[0.7, 0.8])
        restored = TrainingHistory.from_dict(history.to_dict())
        assert np.array_equal(restored.losses, history.losses)
        assert np.array_equal(restored.accuracies, history.accuracies)
        assert np.array_equal(restored.accuracy_steps, history.accuracy_steps)

    def test_repr(self):
        history = make_history([0.5])
        assert "final_loss" in repr(history)

    @pytest.mark.parametrize(
        "steps,values",
        [
            ("loss_steps", "losses"),
            ("accuracy_steps", "accuracies"),
            ("virtual_time_steps", "virtual_times"),
        ],
    )
    def test_unpaired_lists_rejected(self, steps, values):
        """A value list one entry short of its steps names itself."""
        history = make_history([0.5, 0.4], accuracies=[0.7, 0.8])
        history.record_virtual_time(1, 1.0)
        history.record_virtual_time(2, 2.0)
        payload = history.to_dict()
        payload[values].pop()
        with pytest.raises(ValueError, match=f"{values} does not pair with {steps}"):
            TrainingHistory.from_dict(payload)
        payload[values].append(0.0)
        payload[steps].pop()
        with pytest.raises(ValueError, match=f"{values} does not pair with {steps}"):
            TrainingHistory.from_dict(payload)


class TestAggregation:
    def test_loss_mean_std(self):
        histories = [make_history([1.0, 2.0]), make_history([3.0, 4.0])]
        stats = aggregate_losses(histories)
        assert np.allclose(stats.mean, [2.0, 3.0])
        assert np.allclose(stats.std, [1.0, 1.0])
        assert stats.final_mean == pytest.approx(3.0)

    def test_accuracy_aggregation(self):
        histories = [
            make_history([1.0], accuracies=[0.5, 0.7]),
            make_history([1.0], accuracies=[0.9, 0.9]),
        ]
        stats = aggregate_accuracy(histories)
        assert np.allclose(stats.mean, [0.7, 0.8])

    def test_misaligned_steps_rejected(self):
        with pytest.raises(ValueError, match="different steps"):
            aggregate_losses([make_history([1.0, 2.0]), make_history([1.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_losses([])

    def test_single_history(self):
        stats = aggregate_losses([make_history([1.0, 2.0])])
        assert np.allclose(stats.std, 0.0)

    def test_series_stats_validation(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SeriesStats(steps=np.array([1]), mean=np.array([1.0, 2.0]), std=np.array([0.0]))

    def test_series_stats_round_trip(self):
        stats = SeriesStats(
            steps=np.array([1, 2]), mean=np.array([0.5, 0.4]), std=np.array([0.1, 0.2])
        )
        restored = SeriesStats.from_dict(stats.to_dict())
        assert np.array_equal(restored.steps, stats.steps)
        assert np.array_equal(restored.mean, stats.mean)
