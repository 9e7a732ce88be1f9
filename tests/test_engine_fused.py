"""The fused round engine: bit-identity, routing, fallbacks, recording.

The contract under test: executing rounds through
:class:`repro.distributed.engine.RoundEngine` is *bit-identical* to
per-round :meth:`Cluster.step` — same recorded losses, same final
parameters, same worker-visible state — across GARs, attacks, DP
mechanisms, momentum placements, lossy networks and sharded data; and
every configuration the fused pipeline does not cover falls back
per-round with identical results.  The committed golden traces replay
through the engine unmodified.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.phishing import make_phishing_dataset
from repro.distributed.cluster import StepResult
from repro.distributed.engine import RoundEngine
from repro.distributed.worker import HonestWorker
from repro.exceptions import ConfigurationError
from repro.metrics.history import TrainingHistory
from repro.models.logistic import LogisticRegressionModel, sigmoid
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import (
    AccuracyCallback,
    Callback,
    CallbackList,
    EarlyStopping,
    StepResultRecorder,
)
from tests.reference_loop import _reference_sigmoid, reference_training_rounds

GOLDEN_PATH = Path(__file__).parent / "golden" / "traces.json"


class _NoopCallback(Callback):
    """Forces the per-round path without requesting matrices."""

    needs_step_matrices = False


def _environment():
    train = make_phishing_dataset(seed=0, num_points=240, num_features=10)
    return LogisticRegressionModel(10), train


def _experiment(model, train, **overrides):
    base = dict(
        model=model,
        train_dataset=train,
        test_dataset=None,
        num_steps=7,
        batch_size=10,
        g_max=1e-2,
        seed=3,
    )
    base.update(overrides)
    return Experiment(**base)


CONFIGS = {
    "krum-little-gaussian-momentum": dict(
        gar="krum", attack="little", n=9, f=3, epsilon=0.5, momentum=0.99
    ),
    "median-empire-laplace": dict(
        gar="median", attack="empire", n=9, f=4, epsilon=1.0,
        noise_kind="laplace", momentum=0.0,
    ),
    "average-nodp-momentum": dict(
        gar="average", attack=None, n=5, f=0, epsilon=None, momentum=0.9
    ),
    "mda-signflip-lossy": dict(
        gar="mda", attack="signflip", n=7, f=2, epsilon=None,
        momentum=0.0, drop_probability=0.3,
    ),
    "geomedian-shards": dict(
        gar="geometric-median", attack="little", n=9, f=4, epsilon=0.2,
        momentum=0.99, data_distribution="iid-shards",
    ),
    "trimmedmean-server-momentum": dict(
        gar="trimmed-mean", attack=None, n=9, f=4, epsilon=0.3,
        momentum=0.5, momentum_at="server",
    ),
    # Paper scale: n = 25 workers at the paper's ~45 % Byzantine share.
    "krum-little-paper-scale": dict(
        gar="krum", attack="little", n=25, f=11, epsilon=0.5, momentum=0.99
    ),
}


class TestFusedBitIdentity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fused_equals_per_round(self, name):
        model, train = _environment()
        fused = _experiment(model, train, **CONFIGS[name]).run()
        per_round = _experiment(model, train, **CONFIGS[name]).run(
            callbacks=[_NoopCallback()]
        )
        assert fused.history.losses.tolist() == per_round.history.losses.tolist()
        assert fused.history.loss_steps.tolist() == per_round.history.loss_steps.tolist()
        assert (
            fused.final_parameters.tolist() == per_round.final_parameters.tolist()
        )

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fused_equals_reference_loop(self, name):
        model, train = _environment()
        fused = _experiment(model, train, **CONFIGS[name]).run()
        reference = _experiment(model, train, **CONFIGS[name])
        cluster = reference.build_cluster()
        history = TrainingHistory()
        reference_training_rounds(cluster, model, history, 7)
        assert fused.history.losses.tolist() == history.losses.tolist()
        assert fused.final_parameters.tolist() == cluster.parameters.tolist()

    def test_worker_state_matches_after_run(self):
        """Momentum buffers and last batches line up with per-round."""
        model, train = _environment()
        spec = CONFIGS["krum-little-gaussian-momentum"]
        fused = _experiment(model, train, **spec)
        fused.run()
        per_round = _experiment(model, train, **spec)
        per_round.run(callbacks=[_NoopCallback()])
        for fused_worker, slow_worker in zip(
            fused.build_workers(), per_round.build_workers()
        ):
            assert (
                fused_worker._velocity_submitted.tolist()
                == slow_worker._velocity_submitted.tolist()
            )
            assert (
                fused_worker._velocity_clean.tolist()
                == slow_worker._velocity_clean.tolist()
            )
            assert (
                fused_worker.last_batch[0].tolist()
                == slow_worker.last_batch[0].tolist()
            )
            assert (
                fused_worker.last_batch[1].tolist()
                == slow_worker.last_batch[1].tolist()
            )

    def test_repeated_runs_identical(self):
        """Experiment.run through the engine is rebuild-stable."""
        model, train = _environment()
        experiment = _experiment(model, train, **CONFIGS["krum-little-gaussian-momentum"])
        first = experiment.run()
        second = experiment.run()
        assert first.history.losses.tolist() == second.history.losses.tolist()
        assert first.final_parameters.tolist() == second.final_parameters.tolist()


class TestGoldenTracesThroughEngine:
    """The committed golden traces replay through the fused engine.

    Accuracy entries are read-only observations of the parameters and
    need the (callback-driven) evaluation loop, so the fused replay
    checks the trace's losses and final parameters — the quantities the
    round pipeline itself produces — bit for bit, unmodified.
    """

    CASES = {
        "mda-little-gaussian": dict(
            gar="mda", attack="little", epsilon=0.5, noise_kind="gaussian", n=9, f=3
        ),
        "krum-signflip-nodp": dict(gar="krum", attack="signflip", n=9, f=3),
        "median-empire-laplace": dict(
            gar="median", attack="empire", epsilon=1.0, noise_kind="laplace", n=9, f=4
        ),
        "geomedian-little-gaussian": dict(
            gar="geometric-median", attack="little", epsilon=0.5,
            noise_kind="gaussian", n=9, f=4,
        ),
        "bulyan-zero-nodp": dict(gar="bulyan", attack="zero", n=11, f=2),
        "trimmedmean-noattack-gaussian": dict(
            gar="trimmed-mean", attack=None, epsilon=0.2, noise_kind="gaussian",
            n=9, f=4,
        ),
        "meamed-little-nodp-lossy": dict(
            gar="meamed", attack="little", n=9, f=4, drop_probability=0.3
        ),
    }

    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_PATH.exists(), "golden traces fixture missing"
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_trace_replays_bit_identically(self, name, golden):
        overrides = self.CASES[name]
        experiment = Experiment(
            model=LogisticRegressionModel(10),
            train_dataset=make_phishing_dataset(seed=0, num_points=240, num_features=10),
            test_dataset=None,  # no accuracy callback -> fused path
            num_steps=6,
            batch_size=10,
            eval_every=3,
            seed=7,
            **overrides,
        )
        cluster = experiment.build_cluster()
        assert cluster.engine.supports_fused
        result = experiment.run()
        expected = golden[name]
        assert [float(v) for v in result.history.losses] == expected["losses"]
        assert (
            [float(v) for v in result.final_parameters]
            == expected["final_parameters"]
        )

    def test_cases_cover_the_golden_fixture(self, golden):
        assert sorted(self.CASES) == sorted(golden)


class TestEligibilityFallbacks:
    def _cluster(self, **overrides):
        model, train = _environment()
        spec = dict(CONFIGS["krum-little-gaussian-momentum"])
        spec.update(overrides)
        return _experiment(model, train, **spec).build_cluster()

    def test_supported_on_the_stock_pipeline(self):
        engine = self._cluster().engine
        assert engine.supports_fused
        assert engine.fused_unsupported_reason is None

    def test_per_example_clipping_falls_back(self):
        engine = self._cluster(clip_mode="per_example").engine
        assert not engine.supports_fused
        assert "per-example" in engine.fused_unsupported_reason

    def test_worker_subclass_falls_back(self):
        from repro.data.batching import BatchSampler
        from repro.distributed.cluster import Cluster
        from repro.distributed.server import ParameterServer
        from repro.gars import get_gar
        from repro.optim.sgd import SGDOptimizer

        class CustomWorker(HonestWorker):
            def compute(self, parameters, step):
                return super().compute(parameters, step)

        model, train = _environment()
        rng = np.random.default_rng(0)
        workers = [
            CustomWorker(
                worker_id=i,
                model=model,
                sampler=BatchSampler(train, 10, np.random.default_rng(i)),
                noise_rng=np.random.default_rng(100 + i),
            )
            for i in range(3)
        ]
        server = ParameterServer(
            initial_parameters=np.zeros(model.dimension),
            gar=get_gar("average", 3, 0),
            optimizer=SGDOptimizer(0.5),
        )
        cluster = Cluster(server=server, honest_workers=workers)
        assert not cluster.engine.supports_fused
        assert "CustomWorker" in cluster.engine.fused_unsupported_reason
        with pytest.raises(ConfigurationError, match="fused execution unavailable"):
            cluster.engine.run(3)

    def test_custom_mechanism_privatize_falls_back(self):
        from repro.privacy.mechanisms import GaussianMechanism

        class OddMechanism(GaussianMechanism):
            def privatize(self, gradient, rng):
                return super().privatize(gradient, rng)

        model, train = _environment()
        experiment = _experiment(
            model, train, gar="average", attack=None, n=3, f=0, momentum=0.0
        )
        experiment.mechanism = OddMechanism(
            epsilon=0.5, delta=1e-6, l2_sensitivity=0.002
        )
        cluster = experiment.build_cluster()
        assert not cluster.engine.supports_fused
        assert "OddMechanism" in cluster.engine.fused_unsupported_reason

    def test_shared_rng_streams_fall_back(self):
        """A generator shared across consumed roles would be pre-drawn
        in a different order than per-round interleaving: no fusion."""
        from repro.data.batching import BatchSampler
        from repro.distributed.cluster import Cluster
        from repro.distributed.server import ParameterServer
        from repro.gars import get_gar
        from repro.optim.sgd import SGDOptimizer
        from repro.privacy.mechanisms import GaussianMechanism

        model, train = _environment()
        mechanism = GaussianMechanism(epsilon=0.5, delta=1e-6, l2_sensitivity=0.002)
        shared = np.random.default_rng(0)
        workers = [
            HonestWorker(
                worker_id=i,
                model=model,
                sampler=BatchSampler(train, 10, shared),
                noise_rng=shared,  # same stream as the sampler
                g_max=1e-2,
                mechanism=mechanism,
            )
            for i in range(3)
        ]
        server = ParameterServer(
            initial_parameters=np.zeros(model.dimension),
            gar=get_gar("average", 3, 0),
            optimizer=SGDOptimizer(0.5),
        )
        cluster = Cluster(server=server, honest_workers=workers)
        assert not cluster.engine.supports_fused
        assert "share RNG" in cluster.engine.fused_unsupported_reason

    def test_custom_optimizer_step_falls_back(self):
        """An optimizer overriding step() must not be bypassed by the
        in-place out= path (it might ignore or mishandle out=)."""
        from repro.optim.sgd import SGDOptimizer

        class ClampedSGD(SGDOptimizer):
            def step(self, parameters, gradient, out=None):
                updated = super().step(parameters, gradient)
                return np.clip(updated, -1.0, 1.0)

        model, train = _environment()
        experiment = _experiment(
            model, train, gar="average", attack=None, n=3, f=0, momentum=0.0
        )
        server = experiment.build_server()
        server._optimizer = ClampedSGD(2.0)
        cluster = experiment.build_cluster()
        assert not cluster.engine.supports_fused
        assert "ClampedSGD" in cluster.engine.fused_unsupported_reason

    def test_sample_noise_override_falls_back(self):
        """A mechanism overriding sample_noise must not inherit the
        vectorized block draw (it would fuse with *different* noise)."""
        from repro.privacy.mechanisms import GaussianMechanism

        class HalfNoise(GaussianMechanism):
            def sample_noise(self, dimension, rng):
                return 0.5 * super().sample_noise(dimension, rng)

        model, train = _environment()
        experiment = _experiment(
            model, train, gar="average", attack=None, n=3, f=0, momentum=0.0
        )
        experiment.mechanism = HalfNoise(epsilon=0.5, delta=1e-6, l2_sensitivity=0.002)
        cluster = experiment.build_cluster()
        assert not cluster.engine.supports_fused
        assert "sample_noise" in cluster.engine.fused_unsupported_reason
        # And the loop's fallback stays bit-identical to forced per-round.
        first = experiment.run()
        rebuilt = _experiment(
            model, train, gar="average", attack=None, n=3, f=0, momentum=0.0
        )
        rebuilt.mechanism = HalfNoise(epsilon=0.5, delta=1e-6, l2_sensitivity=0.002)
        second = rebuilt.run(callbacks=[_NoopCallback()])
        assert first.final_parameters.tolist() == second.final_parameters.tolist()

    def test_custom_block_override_is_trusted(self):
        """Overriding sample_noise_block itself owns the contract."""
        from repro.privacy.mechanisms import GaussianMechanism, NoiseMechanism

        class SequentialBlocks(GaussianMechanism):
            def sample_noise(self, dimension, rng):
                return 0.5 * super().sample_noise(dimension, rng)

            def sample_noise_block(self, rounds, dimension, rng):
                return NoiseMechanism.sample_noise_block(self, rounds, dimension, rng)

        model, train = _environment()
        experiment = _experiment(
            model, train, gar="average", attack=None, n=3, f=0, momentum=0.0
        )
        experiment.mechanism = SequentialBlocks(
            epsilon=0.5, delta=1e-6, l2_sensitivity=0.002
        )
        cluster = experiment.build_cluster()
        assert cluster.engine.supports_fused
        fused = experiment.run()
        rebuilt = _experiment(
            model, train, gar="average", attack=None, n=3, f=0, momentum=0.0
        )
        rebuilt.mechanism = SequentialBlocks(
            epsilon=0.5, delta=1e-6, l2_sensitivity=0.002
        )
        per_round = rebuilt.run(callbacks=[_NoopCallback()])
        assert (
            fused.final_parameters.tolist() == per_round.final_parameters.tolist()
        )

    def test_model_stack_override_falls_back(self):
        """A model subclass overriding gradient_stack must not fuse with
        the inherited single-pass implementation."""

        class Regularized(LogisticRegressionModel):
            def gradient_stack(self, parameters, features_stack, labels_stack):
                return super().gradient_stack(
                    parameters, features_stack, labels_stack
                ) + 0.01 * parameters

        _, train = _environment()
        model = Regularized(10)
        spec = dict(gar="average", attack=None, n=3, f=0, momentum=0.0, epsilon=None)
        cluster = _experiment(model, train, **spec).build_cluster()
        assert not cluster.engine.supports_fused
        assert "gradient_stack" in cluster.engine.fused_unsupported_reason
        fused_route = _experiment(model, train, **spec).run()
        per_round = _experiment(model, train, **spec).run(callbacks=[_NoopCallback()])
        assert (
            fused_route.final_parameters.tolist()
            == per_round.final_parameters.tolist()
        )

    def test_mismatched_probe_model_steps_per_round(self):
        """TrainingLoop with a probe model != cohort model must not fuse
        (the fused loss would come from the cohort's model)."""
        from repro.pipeline.loop import TrainingLoop

        model, train = _environment()
        spec = CONFIGS["krum-little-gaussian-momentum"]
        experiment = _experiment(model, train, **spec)
        cluster = experiment.build_cluster()
        probe = LogisticRegressionModel(10, loss_kind="nll")
        loop = TrainingLoop(cluster=cluster, model=probe)
        state = loop.run(4)
        assert state.step == 4
        # Losses were recorded with the probe model (per-round route).
        reference = _experiment(model, train, **spec)
        ref_cluster = reference.build_cluster()
        ref_loop = TrainingLoop(cluster=ref_cluster, model=probe, callbacks=[_NoopCallback()])
        ref_state = ref_loop.run(4)
        assert (
            state.history.losses.tolist() == ref_state.history.losses.tolist()
        )
        with pytest.raises(ConfigurationError, match="cohort"):
            cluster.engine.run(2, model=probe)

    def test_fallback_path_still_bit_identical(self):
        """per_example configs run per-round in both cases: identical."""
        model, train = _environment()
        spec = dict(CONFIGS["krum-little-gaussian-momentum"], clip_mode="per_example")
        first = _experiment(model, train, **spec).run()
        second = _experiment(model, train, **spec).run(callbacks=[_NoopCallback()])
        assert first.history.losses.tolist() == second.history.losses.tolist()
        assert first.final_parameters.tolist() == second.final_parameters.tolist()

    def test_run_validates_arguments(self):
        engine = self._cluster().engine
        with pytest.raises(ConfigurationError, match="num_rounds"):
            engine.run(0)
        with pytest.raises(ConfigurationError, match="block_size"):
            engine.run(3, block_size=0)


class TestRecordFlag:
    def test_engine_record_payloads(self):
        cluster = TestEligibilityFallbacks()._cluster()
        result = cluster.engine.run(3, record=True)
        assert result.recorded
        assert result.honest_submitted.shape == (6, 11)
        assert result.honest_clean.shape == (6, 11)
        assert result.step == 3

    def test_engine_default_omits_payloads(self):
        cluster = TestEligibilityFallbacks()._cluster()
        result = cluster.engine.run(3)
        assert not result.recorded
        assert result.honest_submitted is None
        assert result.honest_clean is None
        assert result.aggregated.shape == (11,)
        with pytest.raises(ConfigurationError, match="record=False"):
            result.num_honest

    def test_record_true_matrices_are_copies(self):
        cluster = TestEligibilityFallbacks()._cluster()
        first = cluster.engine.run(1, record=True)
        frozen = first.honest_submitted.copy()
        cluster.engine.run(1, record=True)
        assert first.honest_submitted.tolist() == frozen.tolist()

    def test_cluster_step_record_flag(self):
        cluster = TestEligibilityFallbacks()._cluster()
        with_payload = cluster.step()
        assert with_payload.recorded
        without = cluster.step(record=False)
        assert not without.recorded
        assert without.byzantine_gradient is not None

    def test_engine_blocks_match_single_block(self):
        model, train = _environment()
        spec = CONFIGS["krum-little-gaussian-momentum"]
        small = _experiment(model, train, **spec)
        chunked = small.build_cluster().engine.run(
            7, history=TrainingHistory(), block_size=3
        )
        big = _experiment(model, train, **spec)
        whole = big.build_cluster().engine.run(7, history=TrainingHistory())
        assert chunked.aggregated.tolist() == whole.aggregated.tolist()
        assert (
            small.build_server().parameters.tolist()
            == big.build_server().parameters.tolist()
        )


class TestCallbackRouting:
    def test_needs_step_matrices_defaults(self):
        assert Callback().needs_step_matrices
        assert StepResultRecorder().needs_step_matrices
        assert not AccuracyCallback.needs_step_matrices
        assert not EarlyStopping.needs_step_matrices

    def test_callback_list_any_logic(self):
        assert not CallbackList([_NoopCallback()]).needs_step_matrices
        assert CallbackList([_NoopCallback(), StepResultRecorder()]).needs_step_matrices
        assert not CallbackList().needs_step_matrices

    def test_matrix_callbacks_see_payloads(self):
        model, train = _environment()
        recorder = StepResultRecorder()
        _experiment(
            model, train, **CONFIGS["krum-little-gaussian-momentum"]
        ).run(callbacks=[recorder])
        assert len(recorder.results) == 7
        assert all(result.recorded for result in recorder.results)

    def test_lightweight_callbacks_skip_payloads(self):
        model, train = _environment()
        seen: list[StepResult] = []

        class Probe(Callback):
            needs_step_matrices = False

            def on_step_end(self, state, result):
                seen.append(result)

        _experiment(
            model, train, **CONFIGS["krum-little-gaussian-momentum"]
        ).run(callbacks=[Probe()])
        assert len(seen) == 7
        assert all(not result.recorded for result in seen)

    def test_run_record_override_forces_payloads(self):
        """A callback-free loop can still request the matrices."""
        from repro.pipeline.loop import TrainingLoop

        model, train = _environment()
        experiment = _experiment(model, train, **CONFIGS["krum-little-gaussian-momentum"])
        cluster = experiment.build_cluster()
        assert cluster.engine.supports_fused
        loop = TrainingLoop(cluster=cluster, model=model)
        state = loop.run(4, record=True)
        assert state.last_result.recorded
        assert state.last_result.honest_submitted.shape == (6, 11)

    def test_stateful_attack_sees_stable_contexts(self):
        """An attack retaining its context across rounds reads the same
        data on the fused and per-round paths (fresh copies per round)."""
        from repro.attacks.base import ByzantineAttack

        class Adaptive(ByzantineAttack):
            name = "adaptive-probe"

            def __init__(self):
                super().__init__("submitted")
                self._previous = None

            def craft(self, context):
                current = context.honest_submitted
                if self._previous is None:
                    crafted = current.mean(axis=0)
                else:
                    crafted = current.mean(axis=0) - self._previous.mean(axis=0)
                self._previous = current  # retained across rounds
                return crafted

        model, train = _environment()
        spec = dict(gar="krum", n=9, f=3, epsilon=0.5, momentum=0.99)
        fused = _experiment(model, train, attack=Adaptive(), **spec).run()
        per_round = _experiment(model, train, attack=Adaptive(), **spec).run(
            callbacks=[_NoopCallback()]
        )
        assert fused.history.losses.tolist() == per_round.history.losses.tolist()
        assert (
            fused.final_parameters.tolist() == per_round.final_parameters.tolist()
        )

    def test_accuracy_callback_results_identical_to_fused_losses(self):
        """A test set adds the accuracy callback (per-round path) but
        must not change the recorded losses or final parameters."""
        model, train = _environment()
        test = make_phishing_dataset(seed=1, num_points=60, num_features=10)
        spec = CONFIGS["krum-little-gaussian-momentum"]
        with_test = _experiment(model, train, test_dataset=test, **spec).run()
        fused = _experiment(model, train, **spec).run()
        assert with_test.history.losses.tolist() == fused.history.losses.tolist()
        assert (
            with_test.final_parameters.tolist() == fused.final_parameters.tolist()
        )
        assert len(with_test.history.accuracies) > 0


class TestSigmoidEquivalence:
    def test_matches_branchy_reference(self):
        rng = np.random.default_rng(0)
        z = np.concatenate(
            [
                rng.standard_normal(500) * 50,
                np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, np.inf, -np.inf]),
            ]
        )
        assert sigmoid(z).tolist() == _reference_sigmoid(z).tolist()


class TestSyncPolicyBufferReuse:
    def test_rounds_do_not_leak_between_each_other(self):
        from repro.simulation.policies import Arrival, SyncPolicy

        policy = SyncPolicy()
        policy.bind(n=3, num_honest=3, dimension=2)

        def arrival(round_index, worker, value):
            return Arrival(
                time=0.0,
                round_index=round_index,
                worker_id=worker,
                model_version=0,
                server_version=0,
                gradient=np.full(2, value),
            )

        policy.on_round_start(1, (0, 1, 2))
        assert policy.on_arrival(arrival(1, 0, 1.0)) is None
        assert policy.on_arrival(arrival(1, 1, 2.0)) is None
        first = policy.on_arrival(arrival(1, 2, 3.0))
        assert first is not None
        assert first.matrix.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        assert first.arrived_workers == (0, 1, 2)

        # Second round reuses the buffer; only worker 1 participates.
        policy.on_round_start(2, (1,))
        second = policy.on_arrival(arrival(2, 1, 9.0))
        assert second is not None
        assert second.matrix.tolist() == [[0.0, 0.0], [9.0, 9.0], [0.0, 0.0]]
        assert second.arrived_workers == (1,)

    def test_double_open_rejected(self):
        from repro.simulation.policies import SyncPolicy

        policy = SyncPolicy()
        policy.bind(n=2, num_honest=2, dimension=1)
        policy.on_round_start(1, (0, 1))
        with pytest.raises(ConfigurationError, match="still waiting"):
            policy.on_round_start(2, (0, 1))


class TestDivergenceThroughEngine:
    def test_divergence_aborts_identically_mid_block(self):
        from repro.exceptions import AggregationError, TrainingError
        from repro.models.linear import LinearRegressionModel

        _, train = _environment()
        model = LinearRegressionModel(10)  # unclipped: genuinely explodes
        spec = dict(
            gar="average", attack=None, n=3, f=0, epsilon=None,
            momentum=0.0, learning_rate=1e12, g_max=None, num_steps=60,
        )
        with pytest.raises((TrainingError, AggregationError)) as fused_error:
            _experiment(model, train, **spec).run()
        with pytest.raises((TrainingError, AggregationError)) as slow_error:
            _experiment(model, train, **spec).run(callbacks=[_NoopCallback()])
        # The fused block aborts at the same round, for the same reason.
        assert type(fused_error.value) is type(slow_error.value)
