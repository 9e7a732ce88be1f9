"""Bytes-on-wire accounting: exact counts, telemetry flow, store identity.

Four layers:

* **Analytic counts** — every codec's reported byte totals over a full
  run equal the documented closed forms (``rounds × n × per-message
  bytes``); the data-dependent discrete-Gaussian payload is checked by
  recomputing its width from the encoded row itself.
* **Per-step results** — ``StepResult.bytes_on_wire`` carries the
  per-round total on every execution path and sums to the cluster's
  running total; raw-wire runs report ``None`` everywhere.
* **Telemetry** — the ``wire.bytes`` counter accumulates exactly the
  run's byte total, on the engine, instrumented-cluster and simulator
  paths alike, and stays absent when no codec is configured.
* **Campaign store** — ``codec``/``codec_kwargs`` are part of the
  content-addressed cell key (a lossy codec changes the numbers) while
  the *measured* ``bytes_on_wire`` lives only in the record; execution
  backend fields stay excluded.
"""

import math

import numpy as np
import pytest

from repro.campaign.runner import CellJob, execute_cell
from repro.campaign.store import cell_key
from repro.compression import DiscreteGaussianCodec
from repro.data.phishing import make_phishing_dataset
from repro.experiments.config import ExperimentConfig
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.telemetry import MemorySink, Telemetry

N = 9
F = 3
D = 11  # 10 features + bias
ROUNDS = 4

#: codec name -> exact bytes of one encoded d=11 message.
PER_MESSAGE_BYTES = {
    "identity": 8 * D,
    "top-k": 12 * math.ceil(0.125 * D),  # default fraction 0.125 -> k=2
    "sign": math.ceil(D / 8) + 8,
    "qsgd": 8 + math.ceil(6 * D / 8),  # levels=16 -> 6 bits/coordinate
}


def _experiment(codec=None, **overrides):
    settings = dict(
        model=LogisticRegressionModel(10),
        train_dataset=make_phishing_dataset(seed=0, num_points=200, num_features=10),
        num_steps=ROUNDS,
        n=N,
        f=F,
        gar="krum",
        attack="little",
        epsilon=0.5,
        batch_size=10,
        eval_every=2,
        seed=3,
        codec=codec,
    )
    settings.update(overrides)
    return Experiment(**settings)


class TestAnalyticCounts:
    @pytest.mark.parametrize("codec", sorted(PER_MESSAGE_BYTES))
    def test_run_total_matches_closed_form(self, codec):
        """All n messages (honest and Byzantine) are accounted each round."""
        result = _experiment(codec=codec).run()
        assert result.bytes_on_wire == ROUNDS * N * PER_MESSAGE_BYTES[codec]

    @pytest.mark.parametrize("codec", sorted(PER_MESSAGE_BYTES))
    def test_per_step_counts_match_closed_form(self, codec):
        cluster = _experiment(codec=codec).build_cluster()
        for _ in range(ROUNDS):
            outcome = cluster.step()
            assert outcome.bytes_on_wire == N * PER_MESSAGE_BYTES[codec]
        assert cluster.bytes_on_wire_total == ROUNDS * N * PER_MESSAGE_BYTES[codec]

    def test_discrete_gaussian_bytes_recomputable_from_the_wire(self):
        """The data-dependent payload width follows from the row itself."""
        granularity = 1.0 / 128
        codec = DiscreteGaussianCodec(granularity=granularity, sigma=2.0, seed=17)
        rng = np.random.default_rng(0)
        for step in range(3):
            vector = rng.normal(scale=0.01, size=23)
            wire, nbytes = codec.encode_row(vector, step, worker=step)
            levels = np.rint(wire / granularity).astype(np.int64)
            assert np.allclose(levels * granularity, wire)
            bits = max(1, int(np.abs(levels).max()).bit_length() + 1)
            assert nbytes == 8 + math.ceil(23 * bits / 8)

    def test_raw_wire_reports_none(self):
        result = _experiment().run()
        assert result.bytes_on_wire is None
        cluster = _experiment().build_cluster()
        assert cluster.step().bytes_on_wire is None
        assert cluster.bytes_on_wire_total == 0


class TestStepResultsAcrossPaths:
    def test_multiprocess_step_results_carry_bytes(self):
        expected = N * PER_MESSAGE_BYTES["sign"]
        experiment = _experiment(codec="sign", backend="multiprocess", num_shards=2)
        with experiment.build_multiprocess_cluster() as runtime:
            for _ in range(2):
                assert runtime.step().bytes_on_wire == expected
            assert runtime.bytes_on_wire_total == 2 * expected

    def test_simulator_accumulates_per_round(self):
        result = _experiment(codec="top-k").simulate()
        assert result.bytes_on_wire == ROUNDS * N * PER_MESSAGE_BYTES["top-k"]


class TestTelemetryFlow:
    def _counter_total(self, telemetry):
        return telemetry.counters.get("wire.bytes")

    def test_engine_path_emits_wire_bytes(self):
        telemetry = Telemetry(sinks=[MemorySink()])
        result = _experiment(codec="sign", telemetry=telemetry).run()
        assert self._counter_total(telemetry) == result.bytes_on_wire

    def test_instrumented_cluster_emits_per_step(self):
        telemetry = Telemetry(sinks=[MemorySink()])
        cluster = _experiment(codec="qsgd").build_cluster()
        cluster.telemetry = telemetry
        outcome = cluster.step()
        assert self._counter_total(telemetry) == outcome.bytes_on_wire

    def test_simulator_emits_wire_bytes(self):
        telemetry = Telemetry(sinks=[MemorySink()])
        result = _experiment(codec="top-k", telemetry=telemetry).simulate()
        assert self._counter_total(telemetry) == result.bytes_on_wire

    def test_no_codec_means_no_counter(self):
        telemetry = Telemetry(sinks=[MemorySink()])
        _experiment(telemetry=telemetry).run()
        assert self._counter_total(telemetry) is None


def _config(**overrides):
    settings = dict(
        name="cell",
        num_steps=2,
        n=5,
        f=1,
        gar="krum",
        attack="little",
        batch_size=10,
        eval_every=2,
        seeds=(3,),
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestStoreIdentity:
    def test_codec_is_part_of_the_cell_key(self):
        raw = cell_key(_config(), seed=3)
        compressed = cell_key(_config(codec="sign"), seed=3)
        identity = cell_key(_config(codec="identity"), seed=3)
        assert len({raw, compressed, identity}) == 3

    def test_codec_kwargs_order_does_not_matter(self):
        forward = _config(codec="top-k", codec_kwargs=(("k", 2), ("seed", 5)))
        backward = _config(codec="top-k", codec_kwargs=(("seed", 5), ("k", 2)))
        assert cell_key(forward, seed=3) == cell_key(backward, seed=3)

    def test_backend_fields_stay_excluded(self):
        inprocess = _config(codec="sign")
        multiprocess = _config(codec="sign", backend="multiprocess", num_shards=2)
        assert cell_key(inprocess, seed=3) == cell_key(multiprocess, seed=3)

    def _job(self, config, mode="train"):
        return CellJob(
            key=cell_key(config, seed=3, mode=mode),
            name=config.name,
            seed=3,
            mode=mode,
            config=config,
            model=LogisticRegressionModel(10),
            train_dataset=make_phishing_dataset(
                seed=0, num_points=120, num_features=10
            ),
            test_dataset=None,
        )

    def test_record_carries_measured_bytes_not_the_key(self):
        config = _config(codec="sign")
        record = execute_cell(self._job(config))
        assert record["bytes_on_wire"] == 2 * 5 * PER_MESSAGE_BYTES["sign"]
        assert record["config"]["codec"] == "sign"

    def test_simulate_record_carries_bytes(self):
        config = _config(codec="sign")
        record = execute_cell(self._job(config, mode="simulate"))
        assert record["bytes_on_wire"] == 2 * 5 * PER_MESSAGE_BYTES["sign"]

    def test_raw_record_reports_null(self):
        record = execute_cell(self._job(_config()))
        assert record["bytes_on_wire"] is None
