"""Multiprocess telemetry: pipe transport, chief merge, crash evidence.

Shards ship their events with each reply on their own pipe; the chief
forwards them into one merged trace tagged per source.  The merged trace must stay
schema-valid (per-source ordering), the run must stay bit-identical to
an unobserved one, and a crashed or hung shard must leave a legible
final warning carrying the exit code, failure round, and worker ids.
"""

from dataclasses import replace

import pytest

from repro.data.phishing import make_phishing_dataset
from repro.distributed.runtime import CRASH_EXIT_CODE
from repro.exceptions import ConfigurationError
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.telemetry import MemorySink, Telemetry, summarize_trace, validate_events


def make_experiment(**overrides):
    settings = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
        num_steps=4,
        n=4,
        f=0,
        gar="average",
        batch_size=10,
        eval_every=100,
        seed=3,
        backend="multiprocess",
        num_shards=2,
    )
    settings.update(overrides)
    return Experiment(**settings)


def observed_run(**overrides):
    sink = MemorySink()
    result = make_experiment(telemetry=Telemetry(sinks=[sink]), **overrides).run()
    return result, sink


class TestMergedTrace:
    def test_merged_trace_is_valid_and_multi_source(self):
        _, sink = observed_run()
        events = validate_events(sink.events)
        assert events[0]["meta"]["backend"] == "multiprocess"
        srcs = {event["src"] for event in events}
        assert srcs == {"chief", "shard:0", "shard:1"}

    def test_chief_and_shard_spans_both_present(self):
        _, sink = observed_run()
        by_src = {}
        for event in sink.by_kind("span"):
            by_src.setdefault(event["src"], set()).add(event["name"])
        # Chief times the round phases; every shard times its cohort.
        assert {"round.publish", "round.wait", "round.server"} <= by_src["chief"]
        assert "round.cohort" in by_src["shard:0"]
        assert "round.cohort" in by_src["shard:1"]

    def test_shard_lifecycle_marks(self):
        _, sink = observed_run()
        starts = sink.named("shard.start")
        stops = sink.named("shard.stop")
        assert {event["src"] for event in starts} == {"shard:0", "shard:1"}
        assert {event["src"] for event in stops} == {"shard:0", "shard:1"}
        for event in starts:
            assert event["attrs"]["workers"]  # which workers the shard owns

    def test_rounds_counted_by_chief_and_every_shard(self):
        _, sink = observed_run()
        summary = summarize_trace(sink.events)
        # 4 rounds seen by the chief and by each of the two shards.
        assert summary["counters"]["rounds"] == 12
        assert summary["steps"] == 4

    def test_run_bit_identical_with_telemetry(self):
        baseline = make_experiment().run()
        observed, _ = observed_run()
        assert (
            observed.final_parameters.tolist()
            == baseline.final_parameters.tolist()
        )
        assert list(observed.history.losses) == list(baseline.history.losses)

    def test_multiprocess_matches_inprocess_under_telemetry(self):
        """Telemetry on both backends preserves the differential
        guarantee: multiprocess ≡ in-process, bit for bit."""
        inprocess, _ = observed_run(backend="inprocess", num_shards=None)
        multiprocess, _ = observed_run()
        assert (
            multiprocess.final_parameters.tolist()
            == inprocess.final_parameters.tolist()
        )


class TestCrashEvidence:
    def crashed_run(self, fail_mode="die", **overrides):
        """Run with shard 1 failing at round 3; return (result, sink)."""
        sink = MemorySink()
        experiment = make_experiment(
            telemetry=Telemetry(sinks=[sink]), **overrides
        )
        specs = [
            replace(spec, fail_step=3, fail_mode=fail_mode)
            if spec.shard_id == 1
            else spec
            for spec in experiment.build_shard_specs()
        ]
        original = experiment.build_shard_specs
        experiment.build_shard_specs = lambda: specs
        try:
            result = experiment.run()
        finally:
            experiment.build_shard_specs = original
        return result, sink

    def test_crashed_shard_leaves_legible_warning(self):
        result, sink = self.crashed_run()
        events = validate_events(sink.events)
        (warning,) = [event for event in events if event["kind"] == "warning"]
        assert warning["src"] == "chief"
        assert warning["name"] == "shard.departed"
        assert "shard 1" in warning["message"]
        attrs = warning["attrs"]
        assert attrs["shard"] == 1
        assert attrs["exit_code"] == CRASH_EXIT_CODE
        assert attrs["fail_step"] == 3
        assert attrs["workers"] == [2, 3]
        summary = summarize_trace(sink.events)
        assert summary["counters"]["shard.departed"] == 1
        assert result.departed == {1: f"process died (code {CRASH_EXIT_CODE})"}

    def test_hung_shard_reports_timeout_reason(self):
        result, sink = self.crashed_run(fail_mode="hang", round_timeout=2.0)
        (warning,) = sink.by_kind("warning")
        assert warning["attrs"]["reason"] == "round timed out"
        assert result.departed == {1: "round timed out"}

    def test_surviving_shard_events_merge_after_crash(self):
        """The dead shard's events stop; the survivor's keep flowing and
        the merged trace stays valid."""
        _, sink = self.crashed_run()
        validate_events(sink.events)
        shard0_rounds = [
            event
            for event in sink.by_kind("counter")
            if event["src"] == "shard:0" and event["name"] == "rounds"
        ]
        assert len(shard0_rounds) == 4
        shard1_spans = [
            event for event in sink.by_kind("span") if event["src"] == "shard:1"
        ]
        # Shard 1 died before writing round 3: at most rounds 1-2 observed.
        assert 1 <= len(shard1_spans) <= 2

    def test_degraded_trace_is_deterministic_under_telemetry(self):
        first, _ = self.crashed_run()
        second, _ = self.crashed_run()
        assert (
            first.final_parameters.tolist() == second.final_parameters.tolist()
        )


class TestInstallationRules:
    def test_telemetry_must_be_installed_before_start(self):
        experiment = make_experiment()
        with experiment.build_multiprocess_cluster() as runtime:
            with pytest.raises(ConfigurationError, match="before the runtime starts"):
                runtime.telemetry = Telemetry(sinks=[MemorySink()])
            runtime.step()

    def test_no_queue_created_without_telemetry(self):
        experiment = make_experiment()
        with experiment.build_multiprocess_cluster() as runtime:
            runtime.step()
            assert runtime.telemetry is None
