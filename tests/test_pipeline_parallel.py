"""Tests for the parallel multi-seed executor."""

import numpy as np
import pytest

from repro.data.datasets import train_test_split
from repro.data.phishing import make_phishing_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_config, run_grid
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.parallel import TrainingJob, execute_job, run_jobs
from repro.rng import generator_from_seed


@pytest.fixture(scope="module")
def tiny_environment():
    dataset = make_phishing_dataset(seed=0, num_points=400, num_features=8)
    train_set, test_set = train_test_split(dataset, 300, generator_from_seed(1))
    model = LogisticRegressionModel(8, loss_kind="mse")
    return model, train_set, test_set


def tiny_config(name="cell", **overrides):
    defaults = dict(
        name=name,
        num_steps=15,
        n=7,
        f=3,
        gar="mda",
        batch_size=8,
        eval_every=5,
        seeds=(1, 2, 3),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunJobs:
    def test_serial_matches_parallel_bit_for_bit(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        jobs = [
            TrainingJob(
                model=model, train_dataset=train_set, test_dataset=test_set,
                train_kwargs=dict(
                    num_steps=10, n=7, f=3, gar="mda", attack="little",
                    epsilon=0.3, batch_size=8, eval_every=5, seed=seed,
                ),
            )
            for seed in (1, 2, 3)
        ]
        serial = run_jobs(jobs, max_workers=None)
        parallel = run_jobs(jobs, max_workers=2)
        assert len(serial) == len(parallel) == 3
        for left, right in zip(serial, parallel):
            assert np.array_equal(left.final_parameters, right.final_parameters)
            assert np.array_equal(left.history.losses, right.history.losses)
            assert np.array_equal(left.history.accuracies, right.history.accuracies)
            assert left.config == right.config

    def test_single_job_runs_in_process(self, tiny_environment):
        model, train_set, _ = tiny_environment
        jobs = [
            TrainingJob(
                model=model, train_dataset=train_set,
                train_kwargs=dict(num_steps=5, n=7, f=3, gar="mda", batch_size=8, seed=5),
            )
        ]
        results = run_jobs(jobs, max_workers=8)
        assert len(results) == 1
        assert results[0].config["seed"] == 5

    def test_invalid_max_workers(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            run_jobs([], max_workers=0)

    def test_execute_job(self, tiny_environment):
        model, train_set, _ = tiny_environment
        job = TrainingJob(
            model=model,
            train_dataset=train_set,
            train_kwargs=dict(num_steps=4, n=7, f=3, gar="mda", batch_size=8, seed=9),
        )
        result = execute_job(job)
        assert len(result.history.losses) == 4


class TestRunConfigParallel:
    def test_max_workers_equivalent_histories(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        config = tiny_config(attack="empire", epsilon=0.5)
        serial = run_config(config, model, train_set, test_set)
        parallel = run_config(config, model, train_set, test_set, max_workers=2)
        assert len(serial.histories) == len(parallel.histories) == 3
        for left, right in zip(serial.histories, parallel.histories):
            assert np.array_equal(left.losses, right.losses)
            assert np.array_equal(left.accuracies, right.accuracies)
        assert np.array_equal(serial.loss_stats.mean, parallel.loss_stats.mean)
        assert np.array_equal(
            serial.accuracy_stats.mean, parallel.accuracy_stats.mean
        )
        assert serial.privacy.per_step.epsilon == parallel.privacy.per_step.epsilon

    def test_run_grid_accepts_max_workers(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        configs = [tiny_config("a", seeds=(1, 2)), tiny_config("b", epsilon=0.4, seeds=(1, 2))]
        serial = run_grid(configs, model, train_set, test_set)
        parallel = run_grid(configs, model, train_set, test_set, max_workers=2)
        assert set(parallel) == {"a", "b"}
        for name in serial:
            assert np.array_equal(
                serial[name].loss_stats.mean, parallel[name].loss_stats.mean
            )


def _double(x):
    return x * 2


class TestChunksizeHeuristic:
    def test_default_chunksize_values(self):
        from repro.pipeline.parallel import default_chunksize

        assert default_chunksize(1, 4) == 1
        assert default_chunksize(16, 4) == 1
        assert default_chunksize(64, 4) == 4
        assert default_chunksize(400, 4) == 25
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(10, 0) == 1

    def test_map_tasks_auto_chunksize_matches_serial(self):
        from repro.pipeline.parallel import map_tasks

        tasks = list(range(40))
        serial = list(map_tasks(_double, tasks))
        auto = list(map_tasks(_double, tasks, max_workers=2, chunksize=None))
        assert auto == serial

    def test_map_tasks_auto_chunksize_unordered_same_multiset(self):
        from repro.pipeline.parallel import map_tasks

        tasks = list(range(40))
        unordered = list(
            map_tasks(_double, tasks, max_workers=2, chunksize=None, ordered=False)
        )
        assert sorted(unordered) == [x * 2 for x in tasks]

    def test_explicit_chunksize_still_validated(self):
        from repro.pipeline.parallel import map_tasks

        with pytest.raises(ConfigurationError, match="chunksize"):
            list(map_tasks(_double, [1, 2], max_workers=2, chunksize=0))
