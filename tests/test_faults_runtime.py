"""Multiprocess fault plane: real crashes, hang SIGKILL, respawn, leaks.

The in-process semantics live in ``test_faults_injection.py``; here the
same :class:`FaultPlan` drives *real* process deaths — ``crash`` is an
``os._exit`` inside the shard, ``hang`` blocks until the chief's round
timeout SIGKILLs it — followed by chief-side respawn at the scheduled
``rejoin`` round.  Covered under both ``fork`` and ``spawn`` start
methods: exit-code propagation into the departure reason, zero leaked
``/dev/shm`` wire segments after shutdown, and the membership log.
"""

import numpy as np
import pytest

from repro.data.phishing import make_phishing_dataset
from repro.distributed.runtime import CRASH_EXIT_CODE, wire_segment_names
from repro.exceptions import DegradedRunError
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.telemetry import MemorySink, Telemetry

CRASH_REJOIN = {
    "events": [
        {"kind": "crash", "round": 2, "shard": 1},
        {"kind": "rejoin", "round": 4, "shard": 1},
    ],
    "num_shards": 2,
}


def make_experiment(faults=None, **overrides):
    settings = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
        num_steps=5,
        n=4,
        f=0,
        gar="average",
        batch_size=10,
        eval_every=100,
        seed=3,
        backend="multiprocess",
        num_shards=2,
        faults=faults,
    )
    settings.update(overrides)
    return Experiment(**settings)


class TestRespawn:
    def test_crash_then_rejoin_restores_membership(self):
        experiment = make_experiment(faults=CRASH_REJOIN)
        with experiment.build_multiprocess_cluster() as runtime:
            runtime.start()
            results = [runtime.step() for _ in range(5)]
            assert runtime.departed == {}
            assert runtime.live_worker_count == 4
            log = runtime.membership_log
        # Shard 1 (workers 2, 3) really died at round 2 and came back
        # at round 4, respawned by the chief.
        assert [(step, shard, kind) for step, shard, kind, _ in log] == [
            (2, 1, "departed"),
            (4, 1, "respawned"),
        ]
        assert f"code {CRASH_EXIT_CODE}" in log[0][3]
        assert np.any(results[0].honest_submitted[2:] != 0.0)
        assert np.all(results[1].honest_submitted[2:] == 0.0)
        assert np.all(results[2].honest_submitted[2:] == 0.0)
        assert np.any(results[3].honest_submitted[2:] != 0.0)

    def test_respawn_emits_telemetry(self):
        sink = MemorySink()
        experiment = make_experiment(
            faults=CRASH_REJOIN, telemetry=Telemetry(sinks=[sink])
        )
        experiment.run()
        respawns = [
            event for event in sink.by_kind("counter")
            if event["name"] == "shard.respawned"
        ]
        assert len(respawns) == 1
        marks = [
            event for event in sink.events
            if event.get("name") == "shard.respawned" and event["kind"] == "mark"
        ]
        assert marks and marks[0]["attrs"]["shard"] == 1
        assert marks[0]["attrs"]["workers"] == [2, 3]

    def test_all_shards_down_raises_degraded(self):
        plan = {
            "events": [
                {"kind": "crash", "round": 2, "shard": 0},
                {"kind": "crash", "round": 2, "shard": 1},
            ],
            "num_shards": 2,
        }
        experiment = make_experiment(faults=plan)
        before = set(wire_segment_names())
        with pytest.raises(DegradedRunError, match="every honest worker"):
            experiment.run()
        # The error path releases the plane.
        assert set(wire_segment_names()) - before == set()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestStartMethods:
    def test_hang_is_sigkilled_and_leaks_nothing(self, start_method, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        plan = {
            "events": [{"kind": "hang", "round": 3, "shard": 1}],
            "num_shards": 2,
        }
        experiment = make_experiment(
            faults=plan, num_steps=4, round_timeout=2.0
        )
        before = set(wire_segment_names())
        with experiment.build_multiprocess_cluster() as runtime:
            runtime.start()
            for _ in range(4):
                runtime.step()
            # The hung shard was SIGKILLed by the chief's round timeout.
            assert runtime.departed == {1: "round timed out"}
            assert runtime.departed_workers == [2, 3]
        assert set(wire_segment_names()) - before == set()

    def test_crash_exit_code_propagates(self, start_method, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        plan = {
            "events": [{"kind": "crash", "round": 3, "shard": 1}],
            "num_shards": 2,
        }
        experiment = make_experiment(faults=plan, num_steps=4)
        before = set(wire_segment_names())
        with experiment.build_multiprocess_cluster() as runtime:
            runtime.start()
            for _ in range(4):
                runtime.step()
            assert runtime.departed == {
                1: f"process died (code {CRASH_EXIT_CODE})"
            }
        assert set(wire_segment_names()) - before == set()

    def test_crash_rejoin_parity_across_start_methods(
        self, start_method, monkeypatch
    ):
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        result = make_experiment(faults=CRASH_REJOIN).run()
        reference = make_experiment(faults=CRASH_REJOIN, backend="inprocess").run()
        assert (
            result.final_parameters.tolist()
            == reference.final_parameters.tolist()
        )
        assert (
            result.history.losses.tolist() == reference.history.losses.tolist()
        )
