"""Fault-injection semantics on the in-process and simulated backends.

Each fault kind's numeric contract, pinned against a fault-free twin
run: ``drop_round`` zeroes exactly one wire row for one round (momentum
and loss accounting continue), ``corrupt_payload`` scales the row by its
factor, ``crash``/``rejoin`` remove and restore whole shards (momentum
cleared, losses excluded while absent), ``slow`` changes nothing
numeric.  The multiprocess side of the same contracts lives in
``test_faults_runtime.py`` / ``test_faults_differential.py``.
"""

import numpy as np
import pytest

from repro.data.phishing import make_phishing_dataset
from repro.exceptions import ConfigurationError, DegradedRunError
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import StepResultRecorder
from repro.telemetry import MemorySink, Telemetry


def make_experiment(faults=None, **overrides):
    settings = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
        num_steps=6,
        n=3,
        f=0,
        gar="average",
        batch_size=10,
        eval_every=100,
        seed=3,
        faults=faults,
    )
    settings.update(overrides)
    return Experiment(**settings)


def run_recorded(faults=None, **overrides):
    recorder = StepResultRecorder()
    experiment = make_experiment(faults=faults, **overrides)
    result = experiment.run(callbacks=[recorder])
    return result, recorder.results


class TestDropRound:
    def test_zeroes_one_row_for_one_round(self):
        plan = {"events": [{"kind": "drop_round", "round": 3, "worker": 1}]}
        clean_result, clean_steps = run_recorded()
        faulty_result, faulty_steps = run_recorded(faults=plan)
        # Rounds 1-2 are untouched: bit-identical to the clean run.
        for step in range(2):
            assert (
                faulty_steps[step].honest_submitted.tolist()
                == clean_steps[step].honest_submitted.tolist()
            )
        dropped = faulty_steps[2]
        assert np.all(dropped.honest_submitted[1] == 0.0)
        assert np.any(dropped.honest_submitted[0] != 0.0)
        # The worker computed the round — the wire lost it: its loss is
        # still recorded, so the round's loss matches the clean run's.
        assert (
            faulty_result.history.losses[2] == clean_result.history.losses[2]
        )

    def test_momentum_continues_through_a_drop(self):
        # With worker momentum, the post-drop round must differ from a
        # run where the worker's momentum was reset (a crash) — the drop
        # keeps the velocity buffers alive.
        drop = {"events": [{"kind": "drop_round", "round": 2, "worker": 0}],
                "num_shards": 3}
        crash = {"events": [
            {"kind": "crash", "round": 2, "shard": 0},
            {"kind": "rejoin", "round": 3, "shard": 0},
        ], "num_shards": 3}
        _, drop_steps = run_recorded(faults=drop, momentum=0.9)
        _, crash_steps = run_recorded(faults=crash, momentum=0.9)
        # Same zeroed wire row during the fault round...
        assert np.all(drop_steps[1].honest_submitted[0] == 0.0)
        assert np.all(crash_steps[1].honest_submitted[0] == 0.0)
        # ...but different worker state afterwards.
        assert (
            drop_steps[2].honest_submitted[0].tolist()
            != crash_steps[2].honest_submitted[0].tolist()
        )


class TestCorruptPayload:
    def test_scales_the_submitted_row(self):
        plan = {"events": [
            {"kind": "corrupt_payload", "round": 2, "worker": 0, "factor": 10.0}
        ]}
        _, clean_steps = run_recorded()
        _, faulty_steps = run_recorded(faults=plan)
        corrupt = faulty_steps[1]
        reference = clean_steps[1]
        assert (
            corrupt.honest_submitted[0].tolist()
            == (reference.honest_submitted[0] * 10.0).tolist()
        )
        assert (
            corrupt.honest_submitted[1].tolist()
            == reference.honest_submitted[1].tolist()
        )

    def test_corruption_perturbs_the_aggregate(self):
        plan = {"events": [
            {"kind": "corrupt_payload", "round": 2, "worker": 0, "factor": 10.0}
        ]}
        clean_result, _ = run_recorded()
        faulty_result, _ = run_recorded(faults=plan)
        assert (
            faulty_result.final_parameters.tolist()
            != clean_result.final_parameters.tolist()
        )


class TestCrashRejoin:
    PLAN = {"events": [
        {"kind": "crash", "round": 3, "shard": 2},
        {"kind": "rejoin", "round": 5, "shard": 2},
    ], "num_shards": 3}

    def test_rows_zero_while_down_and_return_after_rejoin(self):
        _, steps = run_recorded(faults=self.PLAN)
        assert np.any(steps[1].honest_submitted[2] != 0.0)  # round 2: up
        assert np.all(steps[2].honest_submitted[2] == 0.0)  # rounds 3-4: down
        assert np.all(steps[3].honest_submitted[2] == 0.0)
        assert np.any(steps[4].honest_submitted[2] != 0.0)  # round 5: back

    def test_losses_exclude_absent_workers(self):
        experiment = make_experiment(faults=self.PLAN)
        cluster = experiment.build_cluster()
        for _ in range(2):
            assert len(cluster.step().honest_losses) == 3
        # Round 3: shard 2 (worker 2) is down.
        assert len(cluster.step().honest_losses) == 2
        # Round 3's loss is measured at pre-update parameters, which are
        # still bit-identical to the clean run — so the only difference
        # is the excluded worker: the recorded mean must change.
        clean_result, _ = run_recorded()
        faulty_result, _ = run_recorded(faults=self.PLAN)
        assert (
            faulty_result.history.losses[1] == clean_result.history.losses[1]
        )
        assert (
            faulty_result.history.losses[2] != clean_result.history.losses[2]
        )

    def test_slow_never_changes_numbers(self):
        slow = {"events": [
            {"kind": "slow", "round": 2, "worker": 1, "factor": 8.0}
        ]}
        clean_result, _ = run_recorded()
        slow_result, _ = run_recorded(faults=slow)
        assert (
            slow_result.final_parameters.tolist()
            == clean_result.final_parameters.tolist()
        )
        assert (
            slow_result.history.losses.tolist()
            == clean_result.history.losses.tolist()
        )


class TestDegradedRun:
    def test_all_shards_down_raises_structured_error(self):
        plan = {"events": [
            {"kind": "crash", "round": 2, "shard": 0},
            {"kind": "crash", "round": 3, "shard": 1},
            {"kind": "crash", "round": 3, "shard": 2},
        ], "num_shards": 3}
        experiment = make_experiment(faults=plan)
        with pytest.raises(DegradedRunError, match="every honest worker"):
            experiment.run()

    def test_simulator_raises_the_same_error(self):
        plan = {"events": [
            {"kind": "crash", "round": 2, "shard": 0},
            {"kind": "crash", "round": 2, "shard": 1},
            {"kind": "crash", "round": 2, "shard": 2},
        ], "num_shards": 3}
        experiment = make_experiment(faults=plan)
        with pytest.raises(DegradedRunError, match="every honest worker"):
            experiment.simulate()


class TestWiring:
    def test_faults_require_matching_mp_shards(self):
        plan = {"events": [{"kind": "crash", "round": 2, "shard": 1}],
                "num_shards": 2}
        with pytest.raises(ConfigurationError, match="num_shards"):
            make_experiment(
                faults=plan, backend="multiprocess", num_shards=3
            )

    def test_faults_kwargs_require_faults(self):
        with pytest.raises(ConfigurationError, match="faults_kwargs"):
            make_experiment(faults_kwargs={"crash_rate": 0.1})

    def test_plan_and_kwargs_are_mutually_exclusive(self):
        from repro.faults import FaultPlan

        with pytest.raises(ConfigurationError):
            make_experiment(
                faults=FaultPlan(), faults_kwargs={"crash_rate": 0.1}
            )

    def test_describe_includes_the_plan(self):
        plan = {"events": [{"kind": "drop_round", "round": 2, "worker": 0}]}
        description = make_experiment(faults=plan).describe()
        assert description["faults"]["events"] == [
            {"kind": "drop_round", "round": 2, "worker": 0}
        ]
        assert make_experiment().describe()["faults"] is None

    def test_fault_injected_telemetry(self):
        sink = MemorySink()
        plan = {"events": [
            {"kind": "drop_round", "round": 2, "worker": 0},
            {"kind": "corrupt_payload", "round": 2, "worker": 1, "factor": 3.0},
        ]}
        experiment = make_experiment(
            faults=plan, telemetry=Telemetry(sinks=[sink])
        )
        experiment.run()
        counters = [
            event for event in sink.by_kind("counter")
            if event["name"] == "fault.injected"
        ]
        assert len(counters) == 1
        [event] = counters
        assert event["attrs"]["zeroed"] == [0]
        assert event["attrs"]["corrupted"] == [1]

    def test_random_model_is_deterministic_across_builds(self):
        kwargs = {"crash_rate": 0.2, "rejoin_after": 1, "num_shards": 3}
        first = make_experiment(faults="random", faults_kwargs=kwargs)
        second = make_experiment(faults="random", faults_kwargs=kwargs)
        assert first.fault_plan == second.fault_plan
