"""Multiprocess cluster runtime: lifecycle, membership and failures.

Bit-identity against the in-process engine is proven in
``test_runtime_differential.py``; this file owns everything else the
runtime promises — validation, graceful leave, crash and hang handling
(no deadlock, deterministic degraded traces, zeroed rows), start-method
independence, and the startup failure path.

Crashes are staged through the specs' failure-injection seam
(``fail_step``/``fail_mode``) rather than by signalling real processes:
an injected ``os._exit`` at a pinned round makes the degraded trace
deterministic, so the tests can assert exact equality instead of
"didn't hang".
"""

import os
import struct
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.data.phishing import make_phishing_dataset
from repro.distributed.runtime import (
    CRASH_EXIT_CODE,
    MultiprocessCluster,
    WorkerShardSpec,
)
from repro.distributed.runtime import shard as shard_module
from repro.exceptions import ConfigurationError, TrainingError
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment


def make_experiment(**overrides):
    """A small seed-pinned multiprocess experiment (no attack)."""
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


def build_runtime(experiment, specs=None, **overrides):
    """A runtime from an experiment, with optional spec surgery."""
    settings = dict(
        server=experiment.build_server(),
        shard_specs=specs if specs is not None else experiment.build_shard_specs(),
        num_byzantine=experiment.num_byzantine,
        attack=experiment.attack,
        attack_rng=(
            experiment.seeds.generator("attack")
            if experiment.attack is not None
            else None
        ),
        network=experiment.build_network(),
    )
    settings.update(overrides)
    return MultiprocessCluster(**settings)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_shard_spec_validation():
    experiment = make_experiment()
    spec = experiment.build_shard_specs()[0]
    with pytest.raises(ConfigurationError):
        replace(spec, worker_ids=(0, 2))  # not contiguous
    with pytest.raises(ConfigurationError):
        replace(spec, worker_ids=(0, 1, 2))  # dataset count mismatch
    with pytest.raises(ConfigurationError):
        replace(spec, clip_mode="bogus")
    with pytest.raises(ConfigurationError):
        replace(spec, fail_mode="explode")
    with pytest.raises(ConfigurationError):
        replace(spec, fail_step=-1)


def test_cluster_validation():
    experiment = make_experiment()
    specs = experiment.build_shard_specs()
    with pytest.raises(ConfigurationError, match="at least one"):
        build_runtime(experiment, specs=[])
    with pytest.raises(ConfigurationError, match="contiguously"):
        build_runtime(experiment, specs=specs[1:])  # starts at a nonzero id
    with pytest.raises(ConfigurationError, match="requires an attack"):
        build_runtime(experiment, num_byzantine=1)
    with pytest.raises(ConfigurationError, match="round_timeout"):
        build_runtime(experiment, round_timeout=0.0)
    # n mismatch: server expects 4 workers, specs only provide shard 0's.
    with pytest.raises(ConfigurationError, match="expects n="):
        build_runtime(experiment, specs=specs[:1])


def test_builder_backend_validation():
    with pytest.raises(ConfigurationError, match="backend"):
        make_experiment(backend="threads")
    with pytest.raises(ConfigurationError, match="num_shards"):
        make_experiment(num_shards=0)
    with pytest.raises(ConfigurationError, match="round_timeout"):
        make_experiment(round_timeout=-1.0)


def test_builder_shard_split_covers_cohort():
    experiment = make_experiment(n=5, num_shards=2)
    specs = experiment.build_shard_specs()
    assert [spec.worker_ids for spec in specs] == [(0, 1, 2), (3, 4)]
    oversharded = make_experiment(n=3, num_shards=8).build_shard_specs()
    assert [spec.worker_ids for spec in oversharded] == [(0,), (1,), (2,)]


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------


def test_basic_run_and_surface():
    experiment = make_experiment()
    with build_runtime(experiment) as runtime:
        assert runtime.honest_workers == []
        assert runtime.n == 4 and runtime.num_honest == 4
        result = runtime.run(3)
        assert runtime.step_count == 3 and result.step == 3
        assert result.honest_submitted.shape == (4, 7)
        assert np.all(np.isfinite(runtime.parameters))
        assert result.honest_losses.shape == (4,)
        assert runtime.live_worker_count == 4 and runtime.departed == {}
    # Shutdown is terminal and idempotent.
    runtime.shutdown()
    with pytest.raises(TrainingError, match="shut down"):
        runtime.step()


def test_no_shard_joins_raises_cleanly():
    experiment = make_experiment()
    specs = [
        replace(spec, fail_step=0) for spec in experiment.build_shard_specs()
    ]
    runtime = build_runtime(experiment, specs=specs)
    with pytest.raises(TrainingError, match="no worker shard joined"):
        runtime.start()


# ----------------------------------------------------------------------
# membership: leave / crash / hang
# ----------------------------------------------------------------------


def run_degraded(experiment_factory, specs_transform, steps=5, **overrides):
    """Run with surgically failed shards; return (results, runtime state)."""
    experiment = experiment_factory()
    specs = specs_transform(experiment.build_shard_specs())
    results = []
    with build_runtime(experiment, specs=specs, **overrides) as runtime:
        for _ in range(steps):
            results.append(runtime.step())
        state = {
            "departed": runtime.departed,
            "departed_workers": runtime.departed_workers,
            "live": runtime.live_worker_count,
            "parameters": runtime.parameters.tolist(),
        }
    return results, state


def test_graceful_leave_zeroes_rows_permanently():
    experiment = make_experiment()
    with build_runtime(experiment) as runtime:
        runtime.step()
        runtime.leave(1)  # workers 2, 3
        assert runtime.departed == {1: "left"}
        assert runtime.departed_workers == [2, 3]
        assert runtime.live_worker_count == 2
        result = runtime.step()
        assert np.all(result.honest_submitted[2:] == 0.0)
        assert np.any(result.honest_submitted[:2] != 0.0)
        assert result.honest_losses.shape == (2,)
        runtime.leave(1)  # already departed: a no-op
        with pytest.raises(ConfigurationError, match="unknown shard"):
            runtime.leave(9)


def test_worker_death_mid_round_degrades_without_hanging():
    def fail_shard_one(specs):
        return [
            replace(spec, fail_step=3) if spec.shard_id == 1 else spec
            for spec in specs
        ]

    results, state = run_degraded(make_experiment, fail_shard_one)
    assert state["departed"] == {1: f"process died (code {CRASH_EXIT_CODE})"}
    assert state["departed_workers"] == [2, 3]
    assert state["live"] == 2
    # Rows are real before the crash round, zero from it onward; the
    # crash happens *before* the shard writes round 3.
    assert np.any(results[1].honest_submitted[2:] != 0.0)
    for result in results[2:]:
        assert np.all(result.honest_submitted[2:] == 0.0)
        assert np.all(result.honest_clean[2:] == 0.0)
        assert np.any(result.honest_submitted[:2] != 0.0)


def test_degraded_trace_is_deterministic():
    def fail_shard_one(specs):
        return [
            replace(spec, fail_step=3) if spec.shard_id == 1 else spec
            for spec in specs
        ]

    _, first = run_degraded(make_experiment, fail_shard_one)
    _, second = run_degraded(make_experiment, fail_shard_one)
    assert first == second  # exact: reasons, rows, and parameter bits


def test_death_mid_reply_costs_only_its_own_rows(monkeypatch):
    """A shard that dies halfway through writing a reply breaks only its
    own pipe: the round completes long before ``round_timeout``, with
    that shard departed and the other shard's rows live."""

    def die_mid_reply(spec):
        pipe = sys._getframe(1).f_locals["pipe"]  # shard_main's pipe
        # A frame header promising 64 bytes, then 8 of them.
        os.write(pipe.fileno(), struct.pack("!i", 64) + bytes(8))
        os._exit(CRASH_EXIT_CODE)

    # Under fork the shards inherit the patched seam.
    monkeypatch.setattr(shard_module, "_inject_failure", die_mid_reply)
    experiment = make_experiment()
    specs = [
        replace(spec, fail_step=3) if spec.shard_id == 1 else spec
        for spec in experiment.build_shard_specs()
    ]
    runtime = build_runtime(
        experiment, specs=specs, round_timeout=30.0, start_method="fork"
    )
    with runtime:
        runtime.run(2)
        started = time.monotonic()
        result = runtime.step()
        elapsed = time.monotonic() - started
        assert runtime.departed == {1: f"process died (code {CRASH_EXIT_CODE})"}
    assert elapsed < 5.0
    assert np.all(result.honest_submitted[2:] == 0.0)
    assert np.any(result.honest_submitted[:2] != 0.0)
    assert result.honest_losses.shape == (2,)


def test_hung_worker_times_out_to_the_same_trace_as_a_dead_one():
    def fail(mode):
        def transform(specs):
            return [
                replace(spec, fail_step=3, fail_mode=mode)
                if spec.shard_id == 1
                else spec
                for spec in specs
            ]

        return transform

    _, died = run_degraded(make_experiment, fail("die"))
    _, hung = run_degraded(make_experiment, fail("hang"), round_timeout=2.0)
    assert hung["departed"] == {1: "round timed out"}
    assert hung["departed_workers"] == died["departed_workers"]
    # Same degraded semantics regardless of *how* the shard vanished.
    assert hung["parameters"] == died["parameters"]


# ----------------------------------------------------------------------
# start methods
# ----------------------------------------------------------------------


def test_results_are_start_method_independent(monkeypatch):
    def final_parameters():
        experiment = make_experiment(num_steps=3)
        result = experiment.run()
        return result.final_parameters.tolist()

    monkeypatch.setenv("REPRO_START_METHOD", "fork")
    fork_parameters = final_parameters()
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    spawn_parameters = final_parameters()
    assert fork_parameters == spawn_parameters


def test_invalid_start_method_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_START_METHOD", "telepathy")
    from repro.distributed.runtime.context import pinned_start_method

    with pytest.raises(ConfigurationError, match="REPRO_START_METHOD"):
        pinned_start_method()
