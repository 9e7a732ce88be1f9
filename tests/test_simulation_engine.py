"""Unit tests for the discrete-event simulation subsystem."""

import numpy as np
import pytest

from repro.data.phishing import make_phishing_dataset
from repro.exceptions import ConfigurationError, TrainingError
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import StepResultRecorder
from repro.rng import SeedTree
from repro.simulation import (
    Arrival,
    AsyncStalenessPolicy,
    BufferedSemiSyncPolicy,
    ConstantLatency,
    EventQueue,
    FullParticipation,
    GradientArrival,
    LognormalLatency,
    ModelBroadcast,
    PoissonParticipation,
    SimStepResult,
    StragglerLatency,
    SyncPolicy,
    UniformParticipation,
    WorkerWake,
    make_participation,
)


def small_experiment(**overrides):
    defaults = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
        test_dataset=make_phishing_dataset(seed=1, num_points=40, num_features=6),
        num_steps=5,
        n=5,
        f=1,
        gar="median",
        attack="little",
        batch_size=10,
        eval_every=5,
        seed=3,
    )
    defaults.update(overrides)
    return Experiment(**defaults)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(WorkerWake(time=2.0, round_index=1, worker_id=0))
        queue.push(WorkerWake(time=1.0, round_index=1, worker_id=1))
        assert queue.pop().worker_id == 1
        assert queue.pop().worker_id == 0

    def test_ties_pop_in_push_order(self):
        queue = EventQueue()
        for worker in range(5):
            queue.push(WorkerWake(time=0.0, round_index=1, worker_id=worker))
        assert [queue.pop().worker_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek() is None and len(queue) == 0 and not queue
        event = ModelBroadcast(time=0.0, round_index=1)
        queue.push(event)
        assert queue.peek() is event and len(queue) == 1 and queue

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigurationError, match="empty"):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            EventQueue().push(ModelBroadcast(time=-1.0, round_index=1))


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(2.5)
        rng = np.random.default_rng(0)
        assert model.sample(1, 0, rng) == 2.5
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)

    def test_lognormal_deterministic_per_stream(self):
        model = LognormalLatency(median=1.0, sigma=0.5)
        seeds = SeedTree(0)
        first = model.sample(3, 2, seeds.generator("latency", 3, 2))
        again = model.sample(3, 2, seeds.generator("latency", 3, 2))
        other = model.sample(3, 3, seeds.generator("latency", 3, 3))
        assert first == again
        assert first != other
        assert first > 0

    def test_lognormal_validation(self):
        with pytest.raises(ConfigurationError):
            LognormalLatency(median=0.0)
        with pytest.raises(ConfigurationError):
            LognormalLatency(sigma=-0.1)

    def test_straggler_fixed_workers_always_slow(self):
        model = StragglerLatency(
            base=1.0, slowdown=8.0, straggler_probability=0.0, straggler_workers=(2,)
        )
        rng = np.random.default_rng(0)
        assert model.sample(1, 2, rng) == 8.0
        assert model.sample(1, 0, rng) == 1.0

    def test_straggler_probabilistic_mixture(self):
        model = StragglerLatency(base=1.0, slowdown=5.0, straggler_probability=0.5)
        seeds = SeedTree(0)
        samples = {
            model.sample(r, 0, seeds.generator("latency", r, 0)) for r in range(40)
        }
        assert samples == {1.0, 5.0}

    def test_straggler_validation(self):
        with pytest.raises(ConfigurationError):
            StragglerLatency(slowdown=0.5)
        with pytest.raises(ConfigurationError):
            StragglerLatency(straggler_probability=1.5)


class TestParticipationSamplers:
    def test_full(self):
        sampler = FullParticipation()
        assert sampler.sample(1, (0, 1, 2), np.random.default_rng(0)) == (0, 1, 2)
        assert sampler.rate == 1.0

    def test_poisson_deterministic_per_round_stream(self):
        sampler = PoissonParticipation(0.5)
        seeds = SeedTree(9)
        first = sampler.sample(4, tuple(range(10)), seeds.generator("p", 4))
        again = sampler.sample(4, tuple(range(10)), seeds.generator("p", 4))
        assert first == again
        assert first  # never empty

    def test_poisson_fallback_never_empty(self):
        sampler = PoissonParticipation(1e-12)
        chosen = sampler.sample(1, (3, 4, 5), np.random.default_rng(0))
        assert chosen == (3,)  # lowest-indexed candidate

    def test_uniform_fixed_size(self):
        sampler = UniformParticipation(0.5)
        chosen = sampler.sample(1, tuple(range(10)), np.random.default_rng(0))
        assert len(chosen) == 5
        assert chosen == tuple(sorted(chosen))
        assert set(chosen) <= set(range(10))

    def test_uniform_rate_rounds_up_to_one(self):
        sampler = UniformParticipation(0.01)
        assert len(sampler.sample(1, tuple(range(4)), np.random.default_rng(0))) == 1

    @pytest.mark.parametrize(
        "sampler",
        [FullParticipation(), PoissonParticipation(0.2), UniformParticipation(0.4)],
        ids=repr,
    )
    def test_inclusion_probabilities_match_sampled_frequencies(self, sampler):
        candidates = (2, 3, 4)
        rng = np.random.default_rng(0)
        draws = 20_000
        counts = dict.fromkeys(candidates, 0)
        for _ in range(draws):
            for worker in sampler.sample(1, candidates, rng):
                counts[worker] += 1
        probabilities = sampler.inclusion_probabilities(candidates)
        assert set(probabilities) == set(candidates)
        for worker in candidates:
            assert counts[worker] / draws == pytest.approx(
                probabilities[worker], abs=0.015
            )

    def test_make_participation(self):
        assert isinstance(make_participation("poisson", 1.0), FullParticipation)
        assert isinstance(make_participation("poisson", 0.5), PoissonParticipation)
        assert isinstance(make_participation("uniform", 0.5), UniformParticipation)
        with pytest.raises(ConfigurationError):
            make_participation("bogus", 0.5)
        with pytest.raises(ConfigurationError):
            make_participation("poisson", 0.0)


def _arrival(worker, round_index=1, gradient=None, dropped=False, versions=(0, 0)):
    return Arrival(
        time=0.0,
        round_index=round_index,
        worker_id=worker,
        model_version=versions[0],
        server_version=versions[1],
        gradient=gradient if gradient is not None else np.full(3, float(worker + 1)),
        dropped=dropped,
    )


class TestSyncPolicy:
    def test_waits_for_all_expected(self):
        policy = SyncPolicy()
        policy.bind(n=4, num_honest=3, dimension=3)
        policy.on_round_start(1, (0, 1, 3))
        assert policy.on_arrival(_arrival(0)) is None
        assert policy.on_arrival(_arrival(3)) is None
        completion = policy.on_arrival(_arrival(1))
        assert completion is not None
        assert completion.arrived_workers == (0, 1, 3)
        # Non-participant (worker 2) is a zero row.
        assert np.all(completion.matrix[2] == 0.0)
        assert np.all(completion.matrix[0] == 1.0)
        assert completion.update_scale == 1.0
        assert completion.broadcast_to is None

    def test_unopened_round_rejected(self):
        policy = SyncPolicy()
        policy.bind(n=2, num_honest=2, dimension=3)
        with pytest.raises(ConfigurationError, match="unopened round"):
            policy.on_arrival(_arrival(0, round_index=7))


class TestBufferedSemiSyncPolicy:
    def test_completes_at_buffer_size(self):
        policy = BufferedSemiSyncPolicy(buffer_size=2)
        policy.bind(n=4, num_honest=4, dimension=3)
        policy.on_round_start(1, (0, 1, 2, 3))
        assert policy.on_arrival(_arrival(2)) is None
        completion = policy.on_arrival(_arrival(0))
        assert completion is not None
        assert completion.arrived_workers == (0, 2)
        assert np.all(completion.matrix[1] == 0.0)
        assert np.all(completion.matrix[3] == 0.0)

    def test_discards_stale_arrivals(self):
        policy = BufferedSemiSyncPolicy(buffer_size=1)
        policy.bind(n=2, num_honest=2, dimension=3)
        policy.on_round_start(1, (0, 1))
        assert policy.on_arrival(_arrival(0)) is not None
        policy.on_round_start(2, (0, 1))
        assert policy.on_arrival(_arrival(1, round_index=1)) is None  # late
        assert policy.stats() == {"stale_discarded": 1}

    def test_round_closes_permanently_on_completion(self):
        """Leftover arrivals of an aggregated round are stale even
        before the next round's broadcast is processed."""
        policy = BufferedSemiSyncPolicy(buffer_size=1)
        policy.bind(n=3, num_honest=3, dimension=3)
        policy.on_round_start(1, (0, 1, 2))
        assert policy.on_arrival(_arrival(0)) is not None
        # Same-round arrivals after the barrier closed must NOT re-fill
        # a fresh buffer and double-aggregate the round.
        assert policy.on_arrival(_arrival(1)) is None
        assert policy.on_arrival(_arrival(2)) is None
        assert policy.stats() == {"stale_discarded": 2}

    def test_buffer_capped_by_expected(self):
        policy = BufferedSemiSyncPolicy(buffer_size=10)
        policy.bind(n=3, num_honest=3, dimension=3)
        policy.on_round_start(1, (0, 2))
        assert policy.on_arrival(_arrival(0)) is None
        assert policy.on_arrival(_arrival(2)) is not None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BufferedSemiSyncPolicy(buffer_size=0)


class TestAsyncStalenessPolicy:
    def test_aggregates_every_arrival_with_damping(self):
        policy = AsyncStalenessPolicy(damping="inverse")
        policy.bind(n=2, num_honest=2, dimension=3)
        completion = policy.on_arrival(_arrival(0, versions=(0, 3)))
        assert completion is not None
        assert completion.update_scale == pytest.approx(1.0 / 4.0)
        assert completion.staleness == 3.0
        assert completion.broadcast_to == (0,)
        assert np.all(completion.matrix[1] == 0.0)

    def test_cache_keeps_latest_gradient(self):
        policy = AsyncStalenessPolicy()
        policy.bind(n=2, num_honest=2, dimension=3)
        policy.on_arrival(_arrival(0, gradient=np.ones(3)))
        completion = policy.on_arrival(_arrival(1, gradient=np.full(3, 2.0)))
        assert np.all(completion.matrix[0] == 1.0)
        assert np.all(completion.matrix[1] == 2.0)

    def test_dropped_arrivals_skipped(self):
        policy = AsyncStalenessPolicy()
        policy.bind(n=2, num_honest=2, dimension=3)
        assert policy.on_arrival(_arrival(0, dropped=True)) is None
        assert policy.stats()["dropped_skipped"] == 1

    def test_damping_schemes(self):
        assert AsyncStalenessPolicy("exponential", alpha=0.5).weight(2) == 0.25
        assert AsyncStalenessPolicy("constant").weight(9) == 1.0
        with pytest.raises(ConfigurationError):
            AsyncStalenessPolicy("bogus")
        with pytest.raises(ConfigurationError):
            AsyncStalenessPolicy(alpha=0.0)


class TestSimulatorValidation:
    def test_policy_spec_validated_at_init(self):
        with pytest.raises(ConfigurationError, match="policy"):
            small_experiment(policy="bogus")

    def test_latency_spec_validated_at_init(self):
        with pytest.raises(ConfigurationError, match="latency"):
            small_experiment(latency="bogus")

    def test_participation_rate_validated(self):
        with pytest.raises(ConfigurationError, match="participation_rate"):
            small_experiment(participation_rate=0.0)

    def test_participation_kind_validated(self):
        with pytest.raises(ConfigurationError, match="participation_kind"):
            small_experiment(participation_kind="bogus")

    def test_latency_instance_type_validated(self):
        with pytest.raises(ConfigurationError, match="LatencyModel"):
            small_experiment(latency=42).build_simulation()

    def test_policy_instance_type_validated(self):
        with pytest.raises(ConfigurationError, match="ServerPolicy"):
            small_experiment(policy=42).build_simulation()

    @pytest.mark.parametrize(
        "overrides, component",
        [
            ({"latency_kwargs": {"x": 1}}, "latency 'constant'"),
            ({"policy_kwargs": {"x": 1}}, "policy 'sync'"),
        ],
    )
    def test_default_component_keyword_errors_name_it(self, overrides, component):
        with pytest.raises(ConfigurationError, match=component):
            small_experiment(**overrides).build_simulation()


class TestSimulatorExecution:
    def test_constant_latency_advances_clock_one_round_trip_per_round(self):
        result = small_experiment(latency={"name": "constant", "delay": 2.0}).simulate()
        assert list(result.history.virtual_times) == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert result.virtual_time == 10.0

    def test_semisync_tied_timestamps_aggregate_each_round_once(self):
        """Constant latency makes every arrival of a round simultaneous;
        each round must still complete exactly once, in order."""
        recorder = StepResultRecorder()
        result = small_experiment(
            num_steps=6,
            callbacks=[recorder],
            policy={"name": "semi-sync", "buffer_size": 2},
            latency={"name": "constant", "delay": 1.0},
        ).simulate()
        round_sequence = [r.round_index for r in recorder.results]
        assert round_sequence == [1, 2, 3, 4, 5, 6]
        # One round-trip per round; the leftover tied arrivals of each
        # closed round are discarded and counted (n=5 workers, 2 kept;
        # round 6's leftovers are still in-queue when the run ends).
        assert list(result.history.virtual_times) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert result.policy_stats["stale_discarded"] == 5 * 3

    def test_semisync_beats_sync_wall_clock_under_stragglers(self):
        latency = {
            "name": "straggler",
            "base": 1.0,
            "slowdown": 10.0,
            "straggler_probability": 0.0,
            "straggler_workers": [0],
        }
        sync = small_experiment(latency=latency).simulate()
        semi = small_experiment(
            latency=latency, policy={"name": "semi-sync", "buffer_size": 3}
        ).simulate()
        assert semi.virtual_time < sync.virtual_time

    def test_callbacks_receive_sim_step_results(self):
        recorder = StepResultRecorder()
        small_experiment(callbacks=[recorder]).simulate()
        assert len(recorder.results) == 5
        for result in recorder.results:
            assert isinstance(result, SimStepResult)
            assert result.virtual_time >= 0.0
            assert result.participating  # full participation

    def test_simulate_then_run_rebuilds_fresh(self):
        experiment = small_experiment()
        simulated = experiment.simulate()
        trained = experiment.run()
        # Sync policy at zero latency: the two executions are identical,
        # and the second run must not continue the first's state.
        assert list(simulated.history.losses) == list(trained.history.losses)

    def test_repeated_simulate_is_bit_identical(self):
        experiment = small_experiment(
            policy={"name": "semi-sync", "buffer_size": 3},
            latency={"name": "lognormal", "median": 1.0, "sigma": 0.5},
        )
        first = experiment.simulate()
        second = experiment.simulate()
        assert list(first.history.losses) == list(second.history.losses)
        assert list(first.final_parameters) == list(second.final_parameters)
        assert list(first.history.virtual_times) == list(second.history.virtual_times)

    def test_async_policy_counts_rounds_beyond_steps(self):
        result = small_experiment(
            policy="async-staleness",
            latency={"name": "lognormal", "median": 1.0, "sigma": 0.3},
        ).simulate()
        assert result.rounds >= 5
        assert "max_staleness" in result.policy_stats

    def test_lossy_simulation_counts_drops(self):
        result = small_experiment(
            num_steps=20, drop_probability=0.5, attack="zero"
        ).simulate()
        assert result.policy_stats["dropped_arrivals"] > 0

    def test_participation_counts_recorded(self):
        result = small_experiment(
            num_steps=20, participation_rate=0.5, participation_kind="uniform"
        ).simulate()
        rates = result.participation_rates
        assert set(rates) == {0, 1, 2, 3}  # n=5, f=1 -> 4 honest workers
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())
        # Uniform sampling picks 2 of 4 each round.
        assert abs(sum(rates.values()) - 2.0) < 1e-9

    def test_async_survives_lossy_network(self):
        """A dropped async arrival must rewake its sender, not silence
        it: long lossy async runs complete instead of stalling."""
        result = small_experiment(
            num_steps=60,
            policy="async-staleness",
            drop_probability=0.3,
        ).simulate()
        assert result.policy_stats["dropped_arrivals"] > 0
        assert result.policy_stats["dropped_skipped"] > 0
        assert result.policy_stats["server_steps"] == 60

    def test_async_partial_participation_rejected(self):
        with pytest.raises(ConfigurationError, match="barrier"):
            small_experiment(
                policy="async-staleness", participation_rate=0.5
            )

    def test_async_per_worker_privacy_composes_over_invocations(self):
        """Non-barrier accounting must reflect actual mechanism calls,
        not the single sampled round (which would understate epsilon)."""
        result = small_experiment(
            num_steps=30, epsilon=0.5, policy="async-staleness"
        ).simulate()
        for worker, report in result.per_worker_privacy.items():
            # Every worker computed several noisy gradients: the budget
            # is a multiple of the per-step spend, unamplified.
            assert report.sampling_rate == 1.0
            assert report.basic.epsilon > report.per_step.epsilon
            assert report.basic.epsilon == pytest.approx(
                report.per_step.epsilon
                * round(report.basic.epsilon / report.per_step.epsilon)
            )

    def test_semisync_participating_is_arrived_set(self):
        """`participating` reports whose gradients fed the update, not
        the whole woken cohort."""
        recorder = StepResultRecorder()
        small_experiment(
            callbacks=[recorder],
            policy={"name": "semi-sync", "buffer_size": 2},
            latency={
                "name": "straggler",
                "base": 1.0,
                "slowdown": 50.0,
                "straggler_probability": 0.0,
                "straggler_workers": [0, 1],
            },
        ).simulate()
        for result in recorder.results:
            assert len(result.participating) <= 2
            assert 0 not in result.participating  # permanent straggler
            assert 1 not in result.participating

    def test_stalled_policy_raises_training_error(self):
        class NeverAggregates(SyncPolicy):
            def on_arrival(self, arrival):
                super().on_arrival(arrival)
                return None

        with pytest.raises(TrainingError, match="without a server update"):
            small_experiment(policy=NeverAggregates()).simulate()


class TestHistoryVirtualTimes:
    def test_round_trip(self):
        from repro.metrics.history import TrainingHistory

        history = TrainingHistory()
        history.record_loss(1, 0.5)
        history.record_virtual_time(1, 1.5)
        history.record_virtual_time(2, 2.5)
        restored = TrainingHistory.from_dict(history.to_dict())
        assert list(restored.virtual_times) == [1.5, 2.5]
        assert list(restored.virtual_time_steps) == [1, 2]
        assert restored.final_virtual_time == 2.5

    def test_legacy_payload_loads(self):
        from repro.metrics.history import TrainingHistory

        restored = TrainingHistory.from_dict(
            {"loss_steps": [1], "losses": [0.1], "accuracy_steps": [], "accuracies": []}
        )
        assert len(restored.virtual_times) == 0

    def test_monotonicity_enforced(self):
        from repro.metrics.history import TrainingHistory

        history = TrainingHistory()
        history.record_virtual_time(2, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            history.record_virtual_time(2, 2.0)
        with pytest.raises(ValueError, match="decrease"):
            history.record_virtual_time(3, 0.5)


class TestNetworkPerMessageDeterminism:
    def test_decisions_independent_of_query_order(self):
        from repro.distributed.network import LossyNetwork

        forward = LossyNetwork(0.5, seed=123)
        backward = LossyNetwork(0.5, seed=123)
        messages = [(step, worker) for step in range(5) for worker in range(4)]
        first = {m: forward.drops_message(*m) for m in messages}
        second = {m: backward.drops_message(*m) for m in reversed(messages)}
        assert first == second
        assert any(first.values()) and not all(first.values())

    def test_deliver_matches_per_message_api(self):
        from repro.distributed.network import LossyNetwork

        network = LossyNetwork(0.5, seed=7)
        shadow = LossyNetwork(0.5, seed=7)
        gradients = np.ones((6, 3))
        delivered = network.deliver(gradients, step=2)
        expected = np.array([shadow.drops_message(2, w) for w in range(6)])
        assert np.array_equal(np.all(delivered == 0.0, axis=1), expected)

    def test_rng_seeding_is_one_draw(self):
        from repro.distributed.network import LossyNetwork

        first = LossyNetwork(0.3, np.random.default_rng(11))
        second = LossyNetwork(0.3, np.random.default_rng(11))
        assert [first.drops_message(0, w) for w in range(20)] == [
            second.drops_message(0, w) for w in range(20)
        ]

    def test_requires_rng_or_seed(self):
        from repro.distributed.network import LossyNetwork

        with pytest.raises(ConfigurationError, match="rng or seed"):
            LossyNetwork(0.3)
