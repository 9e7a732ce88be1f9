"""Telemetry across the execution surfaces: bit-identity and coverage.

The plane's two core promises, checked end to end on the in-process
engine (per-round and fused paths) and the event-driven simulator:

* **enabled is bit-identical** — a run observed by telemetry produces
  exactly the parameters, losses, and accuracies of an unobserved run
  (telemetry never draws randomness), including every committed golden
  trace;
* **disabled is nearly free** — an unobserved round enters no
  ``repro.telemetry`` frame but the no-op
  :data:`~repro.telemetry.timing.NULL_TIMER`'s methods, and builds no
  event.

The per-name event census of short runs on every backend is pinned
too: trace volume is what the benchmark's memory bound reads.
"""

import collections
import sys

import pytest

from repro.data.phishing import make_phishing_dataset
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.telemetry import (
    MemorySink,
    Telemetry,
    read_trace,
    summarize_trace,
    validate_events,
)
from repro.telemetry.timing import NULL_TIMER, phase_timer

from tests.test_golden_traces import CASES as GOLDEN_CASES
from tests.test_golden_traces import GOLDEN_PATH, _run_case


def make_experiment(**overrides):
    settings = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=150, num_features=6),
        num_steps=5,
        n=9,
        f=3,
        gar="krum",
        attack="little",
        batch_size=10,
        eval_every=2,
        seed=11,
    )
    settings.update(overrides)
    return Experiment(**settings)


def observed_run(**overrides):
    sink = MemorySink()
    telemetry = Telemetry(sinks=[sink])
    result = make_experiment(telemetry=telemetry, **overrides).run()
    return result, sink


def telemetry_frames(run):
    """Code objects of every ``repro.telemetry`` function ``run()`` enters."""
    frames = []

    def profiler(frame, event, arg):
        if event == "call" and "repro/telemetry" in frame.f_code.co_filename:
            frames.append(frame.f_code)

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return frames


TEST_SET = make_phishing_dataset(seed=1, num_points=40, num_features=6)

#: Per-name event counts of one 5-round run per backend: ``(overrides,
#: simulate, counts)``.  A change in trace volume fails here before it
#: reaches the benchmark's memory bound.  Only the chief's events are
#: counted: a crashing shard may exit before its last event batch is
#: shipped.
EVENT_CENSUS = {
    "per-round": (
        {"test_dataset": TEST_SET},
        False,
        {
            "run_start:": 1,
            "span:round.cohort": 5,
            "span:round.attack": 5,
            "span:round.network": 5,
            "span:round.server": 5,
            "counter:rounds": 5,
            "gauge:gar.winner_index": 5,
            "counter:gar.winner_rounds": 5,
            "counter:gar.byzantine_selected": 4,
            "gauge:rounds_per_sec": 1,
            "run_end:": 1,
        },
    ),
    "fused": (
        {},
        False,
        {
            "run_start:": 1,
            "span:round.predraw": 1,
            "span:round.sample": 1,
            "span:round.cohort": 1,
            "span:round.noise": 1,
            "span:round.momentum": 1,
            "span:round.attack": 1,
            "span:round.network": 1,
            "span:round.server": 1,
            "counter:rounds": 1,
            "counter:clip.activations": 1,
            "counter:gar.winner_rounds": 1,
            "counter:gar.byzantine_selected": 1,
            "gauge:rounds_per_sec": 1,
            "run_end:": 1,
        },
    ),
    "simulator": (
        {},
        True,
        {
            "run_start:": 1,
            "span:round.cohort": 5,
            "span:round.attack": 5,
            "span:round.server": 5,
            "counter:rounds": 5,
            "gauge:rounds_per_sec": 1,
            "run_end:": 1,
        },
    ),
    "multiprocess": (
        {
            "backend": "multiprocess",
            "num_shards": 2,
            "faults": {
                "events": [
                    {"kind": "crash", "round": 2, "shard": 1},
                    {"kind": "rejoin", "round": 4, "shard": 1},
                ],
                "num_shards": 2,
            },
        },
        False,
        {
            "run_start:": 1,
            "span:round.publish": 5,
            "span:round.wait": 5,
            "span:round.copyout": 5,
            "span:round.attack": 5,
            "span:round.network": 5,
            "span:round.server": 5,
            "counter:rounds": 5,
            "gauge:gar.winner_index": 5,
            "counter:gar.winner_rounds": 5,
            "counter:gar.byzantine_selected": 4,
            "counter:fault.injected": 2,
            "warning:shard.departed": 1,
            "counter:shard.departed": 1,
            "mark:shard.respawned": 1,
            "counter:shard.respawned": 1,
            "gauge:rounds_per_sec": 1,
            "run_end:": 1,
        },
    ),
}

#: Per-name event counts of each shard of a clean 2-shard, 5-round
#: multiprocess run: one ``round.cohort`` span and one ``rounds`` count
#: per round, between the shard's start and stop marks.
SHARD_CENSUS = {
    "mark:shard.start": 1,
    "span:round.cohort": 5,
    "counter:rounds": 5,
    "mark:shard.stop": 1,
}


class TestBitIdentity:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},  # fused engine (no callbacks attached)
            {"epsilon": 0.5},
            {"drop_probability": 0.3},
            {  # per-round path: the accuracy callback disables fusion
                "test_dataset": make_phishing_dataset(
                    seed=1, num_points=40, num_features=6
                )
            },
        ],
        ids=["fused", "fused-dp", "fused-lossy", "per-round"],
    )
    def test_run_unchanged_by_telemetry(self, overrides):
        baseline = make_experiment(**overrides).run()
        observed, sink = observed_run(**overrides)
        assert (
            observed.final_parameters.tolist()
            == baseline.final_parameters.tolist()
        )
        assert list(observed.history.losses) == list(baseline.history.losses)
        assert list(observed.history.accuracies) == list(baseline.history.accuracies)
        assert len(sink.events) > 0

    def test_simulate_unchanged_by_telemetry(self):
        baseline = make_experiment().simulate()
        sink = MemorySink()
        observed = make_experiment(telemetry=Telemetry(sinks=[sink])).simulate()
        assert (
            observed.final_parameters.tolist()
            == baseline.final_parameters.tolist()
        )
        assert list(observed.history.losses) == list(baseline.history.losses)
        assert len(sink.events) > 0


class TestGoldenReplayWithTelemetry:
    """Satellite: every committed golden trace replays bit-identically
    while a telemetry handle observes the run."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_case_bit_identical_under_telemetry(self, name):
        import json

        golden = json.loads(GOLDEN_PATH.read_text())
        sink = MemorySink()
        overrides = dict(GOLDEN_CASES[name], telemetry=Telemetry(sinks=[sink]))
        actual = _run_case(overrides)
        assert actual == golden[name]
        validate_events(sink.events)
        assert sink.by_kind("span")  # the run was actually observed


class TestTraceContents:
    def test_fused_run_emits_valid_trace_with_block_spans(self):
        _, sink = observed_run()
        events = validate_events(sink.events)
        assert events[0]["meta"]["mode"] == "train"
        assert events[0]["meta"]["gar"] == "krum"
        span_names = {event["name"] for event in sink.by_kind("span")}
        # The fused engine's per-block phases, each tagged with the
        # rounds the block covered.
        assert {"round.cohort", "round.attack", "round.server"} <= span_names
        block_span = sink.named("round.cohort")[0]
        assert block_span["attrs"]["rounds"] >= 1
        summary = summarize_trace(sink.events)
        assert summary["counters"]["rounds"] == 5
        assert summary["gauges"]["rounds_per_sec"] > 0

    def test_per_round_run_emits_one_span_per_round(self):
        test_set = make_phishing_dataset(seed=1, num_points=40, num_features=6)
        _, sink = observed_run(test_dataset=test_set)
        validate_events(sink.events)
        assert len(sink.named("round.server")) == 5
        assert len(sink.named("round.cohort")) == 5
        winner_gauges = sink.named("gar.winner_index")
        assert winner_gauges  # krum selects a single input each round
        for event in winner_gauges:
            assert 0 <= event["value"] < 9

    @pytest.mark.parametrize("case", sorted(EVENT_CENSUS))
    def test_run_keeps_its_event_census(self, case):
        overrides, simulate, expected = EVENT_CENSUS[case]
        sink = MemorySink()
        experiment = make_experiment(telemetry=Telemetry(sinks=[sink]), **overrides)
        experiment.simulate() if simulate else experiment.run()
        census = collections.Counter(
            f"{event['kind']}:{event.get('name', '')}"
            for event in validate_events(sink.events)
            if event["src"] == "chief"
        )
        assert dict(census) == expected

    def test_shards_keep_their_event_census(self):
        sink = MemorySink()
        make_experiment(
            telemetry=Telemetry(sinks=[sink]), backend="multiprocess", num_shards=2
        ).run()
        censuses = collections.defaultdict(collections.Counter)
        for event in validate_events(sink.events):
            if event["src"] != "chief":
                censuses[event["src"]][f"{event['kind']}:{event.get('name', '')}"] += 1
        assert dict(censuses) == {"shard:0": SHARD_CENSUS, "shard:1": SHARD_CENSUS}

    def test_dropped_messages_counted_on_lossy_network(self):
        _, sink = observed_run(drop_probability=0.5)
        summary = summarize_trace(sink.events)
        assert summary["counters"]["network.dropped"] > 0

    def test_epsilon_gauge_reported_for_dp_runs(self):
        result, sink = observed_run(epsilon=0.5)
        summary = summarize_trace(sink.events)
        assert (
            summary["gauges"]["privacy.epsilon_spent"]
            == result.privacy.basic.epsilon
        )
        _, nodp_sink = observed_run()
        assert "privacy.epsilon_spent" not in summarize_trace(nodp_sink.events)["gauges"]

    def test_simulator_trace_stamps_server_steps(self):
        sink = MemorySink()
        make_experiment(telemetry=Telemetry(sinks=[sink])).simulate()
        events = validate_events(sink.events)
        assert events[0]["meta"]["mode"] == "simulate"
        span_names = {event["name"] for event in sink.by_kind("span")}
        assert {"round.cohort", "round.server"} <= span_names
        summary = summarize_trace(sink.events)
        assert summary["counters"]["rounds"] == 5

    def test_path_spec_writes_jsonl_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = make_experiment(telemetry=path).run()
        baseline = make_experiment().run()
        assert result.final_parameters.tolist() == baseline.final_parameters.tolist()
        events = validate_events(read_trace(path))
        assert events[-1]["kind"] == "run_end"

    def test_shared_instance_observes_several_runs(self):
        """A caller-owned handle is flushed, not closed, between runs."""
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        make_experiment(num_steps=2, telemetry=telemetry).run()
        first_total = len(sink.events)
        make_experiment(num_steps=2, telemetry=telemetry).run()
        assert len(sink.events) > first_total

    def test_rejects_bogus_telemetry_spec(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="telemetry must be"):
            make_experiment(telemetry=object())


class TestOffPathOverhead:
    """With no handle installed, a round enters only the phase-timer
    factory and the no-op null timer: no ``Telemetry``, sink or
    event-building frame.  Each no-op lap costs tens of nanoseconds."""

    @pytest.mark.parametrize("path", ["step", "fused"])
    def test_off_path_enters_only_null_timer(self, path):
        cluster = make_experiment().build_cluster()
        assert cluster.telemetry is None
        if path == "step":
            run = cluster.step
        else:
            assert cluster.engine.supports_fused
            run = lambda: cluster.engine.run(2)  # noqa: E731
        run()  # warm caches outside the profiled region
        allowed = {phase_timer.__code__} | {
            getattr(type(NULL_TIMER), name).__code__
            for name in ("restart", "lap", "emit")
        }
        assert set(telemetry_frames(run)) <= allowed

    def test_installed_handle_enters_telemetry_code(self):
        """Sanity check on the guard above: with a handle installed the
        same profiler *does* see telemetry frames."""
        cluster = make_experiment().build_cluster()
        cluster.telemetry = Telemetry(sinks=[MemorySink()])
        cluster.step()
        names = {code.co_name for code in telemetry_frames(cluster.step)}
        assert {"span_ns", "counter", "emit"} <= names
