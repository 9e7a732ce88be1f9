"""Tests for the Experiment builder, training loop, and callbacks."""

import numpy as np
import pytest

from repro.data.datasets import train_test_split
from repro.data.phishing import make_phishing_dataset
from repro.distributed.trainer import train
from repro.exceptions import ConfigurationError
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline import (
    AccuracyCallback,
    Callback,
    CallbackList,
    EarlyStopping,
    Experiment,
    StepResultRecorder,
    TrainingLoop,
    VNRatioCallback,
)
from repro.rng import generator_from_seed

NUM_STEPS = 20


@pytest.fixture(scope="module")
def environment():
    dataset = make_phishing_dataset(seed=0, num_points=600, num_features=10)
    train_set, test_set = train_test_split(dataset, 450, generator_from_seed(1))
    model = LogisticRegressionModel(10, loss_kind="mse")
    return model, train_set, test_set


def make_experiment(environment, **overrides):
    model, train_set, test_set = environment
    defaults = dict(
        model=model,
        train_dataset=train_set,
        test_dataset=test_set,
        num_steps=NUM_STEPS,
        n=7,
        f=3,
        gar="mda",
        batch_size=10,
        eval_every=10,
        seed=1,
    )
    defaults.update(overrides)
    return Experiment(**defaults)


class RecordingCallback(Callback):
    """Logs every hook invocation for ordering assertions."""

    def __init__(self):
        self.events = []

    def on_train_start(self, state):
        self.events.append(("train_start", state.step))

    def on_step_start(self, state):
        self.events.append(("step_start", state.step))

    def on_step_end(self, state, result):
        self.events.append(("step_end", state.step))

    def on_evaluate(self, state, step, accuracy):
        self.events.append(("evaluate", step))

    def on_train_end(self, state):
        self.events.append(("train_end", state.step))

    def should_stop(self, state):
        self.events.append(("should_stop", state.step))
        return False


class TestEquivalenceWithTrain:
    def test_same_run_bit_identical(self, environment):
        model, train_set, test_set = environment
        kwargs = dict(
            model=model,
            train_dataset=train_set,
            test_dataset=test_set,
            num_steps=NUM_STEPS,
            n=7,
            f=3,
            gar="mda",
            attack="little",
            epsilon=0.4,
            batch_size=10,
            eval_every=10,
            seed=3,
        )
        legacy = train(**kwargs)
        built = Experiment(**kwargs).run()
        assert np.array_equal(legacy.final_parameters, built.final_parameters)
        assert np.array_equal(legacy.history.losses, built.history.losses)
        assert np.array_equal(legacy.history.accuracies, built.history.accuracies)
        assert legacy.config == built.config

    def test_spec_driven_construction_identical(self, environment):
        baseline = make_experiment(environment, attack="empire", seed=5).run()
        spec_built = make_experiment(
            environment,
            gar={"name": "mda"},
            attack={"name": "empire", "factor": 1.1},
            learning_rate={"name": "constant", "learning_rate": 2.0},
            seed=5,
        ).run()
        assert np.array_equal(
            baseline.final_parameters, spec_built.final_parameters
        )

    def test_rerun_is_identical(self, environment):
        experiment = make_experiment(environment, attack="little", epsilon=0.3)
        first = experiment.run()
        second = experiment.run()
        assert np.array_equal(first.final_parameters, second.final_parameters)
        assert np.array_equal(first.history.losses, second.history.losses)

    def test_stage_order_does_not_matter(self, environment):
        eager = make_experiment(environment, seed=7)
        eager.build_server()  # server before workers, reversed vs run()
        eager.build_workers()
        lazy = make_experiment(environment, seed=7)
        assert np.array_equal(
            eager.run().final_parameters, lazy.run().final_parameters
        )


class TestStages:
    def test_build_data_shards(self, environment):
        experiment = make_experiment(environment, data_distribution="iid-shards")
        shards = experiment.build_data()
        assert len(shards) == 7  # n - num_byzantine, no attack
        total = sum(shard.num_points for shard in shards)
        assert total == experiment.train_dataset.num_points

    def test_build_workers(self, environment):
        experiment = make_experiment(environment, attack="little", epsilon=0.5)
        workers = experiment.build_workers()
        assert len(workers) == 4  # n=7, f=3 attacking
        assert all(worker.uses_dp for worker in workers)

    def test_build_server_and_cluster(self, environment):
        experiment = make_experiment(environment)
        server = experiment.build_server()
        assert server.gar.name == "mda"
        cluster = experiment.build_cluster()
        assert cluster.n == 7
        assert cluster.server is server

    def test_from_config(self, environment):
        from repro.experiments.config import ExperimentConfig

        model, train_set, test_set = environment
        config = ExperimentConfig(
            name="cell", num_steps=NUM_STEPS, n=7, f=3, gar="mda",
            batch_size=10, eval_every=10, seeds=(4,),
        )
        via_config = Experiment.from_config(config, model, train_set, test_set).run()
        direct = make_experiment(environment, seed=4).run()
        assert np.array_equal(via_config.final_parameters, direct.final_parameters)

    def test_unknown_distribution_rejected_at_construction(self, environment):
        with pytest.raises(ConfigurationError, match="data_distribution"):
            make_experiment(environment, data_distribution="bogus")

    def test_unknown_network_rejected_at_construction(self, environment):
        with pytest.raises(ConfigurationError, match="network"):
            make_experiment(environment, network="carrier-pigeon")

    def test_invalid_callback_rejected(self, environment):
        with pytest.raises(ConfigurationError, match="Callback"):
            make_experiment(environment, callbacks=[object()]).run()


class TestCallbacks:
    def test_hook_ordering(self, environment):
        recorder = RecordingCallback()
        make_experiment(environment, num_steps=3, eval_every=2,
                        callbacks=[recorder]).run()
        expected = [
            ("train_start", 0),
            ("evaluate", 0),  # AccuracyCallback's step-0 evaluation
            ("should_stop", 0),
            ("step_start", 0),
            ("step_end", 1),
            ("should_stop", 1),
            ("step_start", 1),
            ("step_end", 2),
            ("evaluate", 2),
            ("should_stop", 2),
            ("step_start", 2),
            ("step_end", 3),
            ("train_end", 3),
        ]
        assert recorder.events == expected

    def test_early_stopping_threshold(self, environment):
        stopper = EarlyStopping(loss_threshold=1e9)  # met at the first step
        result = make_experiment(
            environment, num_steps=10, callbacks=[stopper]
        ).run()
        assert stopper.triggered
        assert len(result.history.losses) == 1

    def test_early_stopping_patience(self, environment):
        stopper = EarlyStopping(patience=2, min_delta=1e9)  # never "improves"
        result = make_experiment(
            environment, num_steps=10, callbacks=[stopper]
        ).run()
        assert stopper.triggered
        # Step 1 sets the best; steps 2 and 3 exhaust the patience of 2.
        assert len(result.history.losses) == 3

    def test_early_stopping_validation(self):
        with pytest.raises(ConfigurationError):
            EarlyStopping()
        with pytest.raises(ConfigurationError):
            EarlyStopping(patience=0)

    def test_step_result_recorder(self, environment):
        recorder = StepResultRecorder()
        make_experiment(environment, attack="little", callbacks=[recorder]).run()
        results = recorder.results
        assert len(results) == NUM_STEPS
        assert results[0].step == 1
        assert results[0].byzantine_gradient is not None

    def test_vn_ratio_callback(self, environment):
        vn = VNRatioCallback()
        make_experiment(environment, callbacks=[vn]).run()
        trajectory = vn.trajectory
        assert len(trajectory.steps) == NUM_STEPS
        assert np.isfinite(trajectory.k_f)
        assert trajectory.median_ratio("clean") > 0

    def test_vn_ratio_callback_before_run_rejected(self):
        with pytest.raises(ConfigurationError, match="observed"):
            VNRatioCallback().trajectory

    def test_run_callbacks_argument(self, environment):
        recorder = RecordingCallback()
        make_experiment(environment, num_steps=2).run(callbacks=[recorder])
        assert ("train_start", 0) in recorder.events

    def test_accuracy_callback_skips_non_classifiers(self, environment):
        from repro.models.linear import LinearRegressionModel

        _, train_set, test_set = environment
        model = LinearRegressionModel(10)
        result = Experiment(
            model=model, train_dataset=train_set, test_dataset=test_set,
            num_steps=3, n=3, f=0, gar="average", batch_size=5,
            learning_rate=0.01, momentum=0.0, g_max=None, seed=1,
        ).run()
        assert len(result.history.accuracies) == 0

    def test_callback_list_composes(self):
        a, b = RecordingCallback(), RecordingCallback()
        composed = CallbackList([a, b])
        assert len(composed) == 2
        assert list(composed) == [a, b]


class FakeWorker:
    """Duck-typed worker that never samples a batch (all-Byzantine edge)."""

    def __init__(self):
        self.last_batch = None


class FakeCluster:
    """Duck-typed cluster: only what TrainingLoop touches."""

    def __init__(self, workers, dimension=3):
        self.honest_workers = workers
        self.step_count = 0
        self._dimension = dimension

    @property
    def parameters(self):
        return np.zeros(self._dimension)

    def step(self):
        self.step_count += 1
        from repro.distributed.cluster import StepResult

        zero = np.zeros((1, self._dimension))
        return StepResult(
            step=self.step_count, aggregated=zero[0],
            honest_submitted=zero, honest_clean=zero,
        )


class TestLossGuard:
    def test_no_honest_batches_records_nothing(self, environment):
        """Empty per-step loss lists are skipped, not averaged into NaN."""
        import warnings

        model, _, _ = environment
        loop = TrainingLoop(cluster=FakeCluster([FakeWorker()]), model=model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.mean([]) would raise here
            state = loop.run(num_steps=3)
        assert len(state.history) == 0
        assert state.step == 3

    def test_loop_validates_num_steps(self, environment):
        model, _, _ = environment
        loop = TrainingLoop(cluster=FakeCluster([FakeWorker()]), model=model)
        with pytest.raises(ConfigurationError, match="num_steps"):
            loop.run(num_steps=0)
