"""Edge cases for privacy amplification by subsampling, and the
amplified per-worker :class:`PrivacyReport` path the simulator feeds."""

import math

import pytest

from repro.exceptions import PrivacyError
from repro.privacy.amplification import amplify_by_rate, amplify_by_subsampling
from repro.privacy.mechanisms import GaussianMechanism
from repro.pipeline.results import amplified_privacy_report, privacy_report


class TestAmplifyByRate:
    def test_rate_one_is_bit_exact_identity(self):
        spend = amplify_by_rate(0.7, 1e-6, 1.0)
        assert spend.epsilon == 0.7
        assert spend.delta == 1e-6

    def test_rate_below_one_strictly_tighter(self):
        base_epsilon, base_delta = 0.5, 1e-6
        spend = amplify_by_rate(base_epsilon, base_delta, 0.3)
        assert spend.epsilon < base_epsilon
        assert spend.delta < base_delta
        assert spend.epsilon == pytest.approx(
            math.log(1.0 + 0.3 * (math.exp(0.5) - 1.0))
        )

    def test_vanishing_rate_limit(self):
        """As q -> 0 the amplified budget behaves like q * (e^eps - 1) -> 0."""
        epsilon = 1.0
        previous = amplify_by_rate(epsilon, 1e-6, 1e-3).epsilon
        for rate in (1e-6, 1e-9, 1e-12):
            current = amplify_by_rate(epsilon, 1e-6, rate).epsilon
            assert 0 < current < previous
            assert current == pytest.approx(rate * (math.e - 1.0), rel=1e-3)
            previous = current

    def test_monotone_in_rate(self):
        spends = [amplify_by_rate(0.5, 1e-6, q).epsilon for q in (0.1, 0.3, 0.7, 1.0)]
        assert spends == sorted(spends)

    def test_invalid_inputs(self):
        with pytest.raises(PrivacyError):
            amplify_by_rate(0.0, 1e-6, 0.5)
        with pytest.raises(PrivacyError):
            amplify_by_rate(0.5, 1.0, 0.5)
        with pytest.raises(PrivacyError):
            amplify_by_rate(0.5, 1e-6, 0.0)
        with pytest.raises(PrivacyError):
            amplify_by_rate(0.5, 1e-6, 1.5)


class TestAmplifyBySubsamplingEdges:
    def test_full_batch_reduces_to_identity(self):
        """q = 1 (batch == dataset): no subsampling, no amplification."""
        spend = amplify_by_subsampling(0.4, 1e-6, batch_size=500, dataset_size=500)
        assert spend.epsilon == 0.4
        assert spend.delta == 1e-6

    def test_tiny_rate_limit(self):
        """q -> 0: epsilon shrinks toward q * (e^eps - 1), delta toward q*delta."""
        spend = amplify_by_subsampling(1.0, 1e-4, batch_size=1, dataset_size=10**9)
        rate = 1e-9
        assert spend.epsilon == pytest.approx(rate * (math.e - 1.0), rel=1e-6)
        assert spend.delta == pytest.approx(rate * 1e-4)

    def test_invalid_batch_size(self):
        with pytest.raises(PrivacyError, match="batch_size"):
            amplify_by_subsampling(0.5, 1e-6, batch_size=0, dataset_size=100)
        with pytest.raises(PrivacyError, match="batch_size"):
            amplify_by_subsampling(0.5, 1e-6, batch_size=-5, dataset_size=100)

    def test_batch_larger_than_dataset(self):
        with pytest.raises(PrivacyError, match="dataset_size"):
            amplify_by_subsampling(0.5, 1e-6, batch_size=101, dataset_size=100)

    def test_matches_rate_form(self):
        by_sizes = amplify_by_subsampling(0.5, 1e-6, batch_size=50, dataset_size=1000)
        by_rate = amplify_by_rate(0.5, 1e-6, 50 / 1000)
        assert by_sizes == by_rate


class TestAmplifiedPrivacyReport:
    def setup_method(self):
        self.mechanism = GaussianMechanism.for_clipped_gradients(
            epsilon=0.5, delta=1e-6, g_max=1e-2, batch_size=25
        )

    def test_none_without_dp(self):
        assert amplified_privacy_report(None, None, 1e-6, 100, 0.5) is None
        assert amplified_privacy_report(self.mechanism, None, 1e-6, 100, 0.5) is None

    def test_subsampled_strictly_tighter_than_unsampled_same_noise(self):
        """The acceptance criterion: same mechanism (same noise sigma),
        subsampled run reports a strictly smaller total budget."""
        unsampled = privacy_report(self.mechanism, 0.5, 1e-6, 100)
        amplified = amplified_privacy_report(self.mechanism, 0.5, 1e-6, 100, 0.6)
        assert amplified.noise_sigma == unsampled.noise_sigma
        assert amplified.per_step.epsilon < unsampled.per_step.epsilon
        assert amplified.basic.epsilon < unsampled.basic.epsilon
        assert amplified.advanced.epsilon < unsampled.advanced.epsilon
        assert amplified.sampling_rate == 0.6
        assert unsampled.sampling_rate is None

    def test_rate_one_matches_basic_composition(self):
        full = amplified_privacy_report(self.mechanism, 0.5, 1e-6, 50, 1.0)
        unsampled = privacy_report(self.mechanism, 0.5, 1e-6, 50)
        assert full.per_step == unsampled.per_step
        assert full.basic == unsampled.basic
        assert full.advanced == unsampled.advanced

    def test_zero_rate_reports_zero_spend(self):
        report = amplified_privacy_report(self.mechanism, 0.5, 1e-6, 100, 0.0)
        assert report.per_step.epsilon == 0.0
        assert report.basic.epsilon == 0.0
        assert report.advanced.epsilon == 0.0
        assert report.sampling_rate == 0.0

    def test_rdp_omitted_for_amplified_reports(self):
        report = amplified_privacy_report(self.mechanism, 0.5, 1e-6, 100, 0.5)
        assert report.rdp is None

    def test_summary_mentions_rate(self):
        report = amplified_privacy_report(self.mechanism, 0.5, 1e-6, 100, 0.5)
        assert "q=0.5" in report.summary()


class TestSimulatedSubsampledRun:
    """End-to-end: a subsampled simulation reports tighter budgets than
    the same experiment at full participation, at identical noise."""

    def _simulate(self, **overrides):
        from repro.data.phishing import make_phishing_dataset
        from repro.models.logistic import LogisticRegressionModel
        from repro.pipeline.builder import Experiment

        return Experiment(
            model=LogisticRegressionModel(6),
            train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
            num_steps=10,
            n=5,
            f=1,
            gar="median",
            attack="little",
            batch_size=10,
            epsilon=0.5,
            seed=3,
            **overrides,
        ).simulate()

    def test_per_worker_reports_strictly_tighter(self):
        subsampled = self._simulate(
            participation_rate=0.5, participation_kind="uniform"
        )
        full = self._simulate()
        for worker, report in subsampled.per_worker_privacy.items():
            baseline = full.per_worker_privacy[worker]
            assert report.noise_sigma == baseline.noise_sigma  # same mechanism
            assert report.basic.epsilon < baseline.basic.epsilon
            assert report.advanced.epsilon < baseline.advanced.epsilon
            assert report.sampling_rate < 1.0
        assert all(
            report.sampling_rate == 1.0
            for report in full.per_worker_privacy.values()
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["poisson", "uniform"])
    def test_epsilon_covers_inclusion_bound(self, kind, seed):
        """Amplification by subsampling holds at the sampling
        probability, not at the rate one run realizes: no worker may
        report less epsilon than the bound at its per-round inclusion
        probability, composed over the sampled rounds."""
        from repro.data.phishing import make_phishing_dataset
        from repro.models.logistic import LogisticRegressionModel
        from repro.pipeline.builder import Experiment
        from repro.privacy.accountants import BasicCompositionAccountant

        q, n, f, epsilon, delta = 0.1, 7, 2, 0.5, 1e-6
        result = Experiment(
            model=LogisticRegressionModel(10),
            train_dataset=make_phishing_dataset(
                seed=0, num_points=400, num_features=10
            ),
            num_steps=200, n=n, f=f, gar="median", attack="little",
            batch_size=10, epsilon=epsilon, delta=delta, seed=seed,
            participation_rate=q, participation_kind=kind,
        ).simulate()
        m = n - f
        if kind == "poisson":
            # Worker 0 also absorbs the all-excluded draw (non-empty fallback).
            probabilities = [q + (1 - q) ** m] + [q] * (m - 1)
        else:
            probabilities = [max(1, round(q * m)) / m] * m
        rounds = result.policy_stats["sampling_rounds"]
        assert sorted(result.per_worker_privacy) == list(range(m))
        for worker, report in result.per_worker_privacy.items():
            per_step = amplify_by_rate(epsilon, delta, probabilities[worker])
            bound = BasicCompositionAccountant().compose(
                per_step.epsilon, per_step.delta, rounds
            )
            assert report.basic.epsilon >= bound.epsilon
            assert report.sampling_rate == pytest.approx(probabilities[worker])
