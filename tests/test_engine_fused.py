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
from repro.distributed.engine import RoundEngine
from repro.distributed.worker import HonestWorker
from repro.exceptions import ConfigurationError
from repro.metrics.history import TrainingHistory
from repro.models.logistic import LogisticRegressionModel, sigmoid
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import Callback, StepResultRecorder
from tests.reference_loop import _reference_sigmoid, reference_training_rounds

GOLDEN_PATH = Path(__file__).parent / "golden" / "traces.json"


class _NoopCallback(Callback):
    """Forces the per-round path."""


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
        """Per-example clipping is the cohort pass's own clip, so such
        cells fuse, bit-identical to stepping per round."""
        model, train = _environment()
        for name in ("krum-little-gaussian-momentum", "average-nodp-momentum"):
            spec = dict(CONFIGS[name], clip_mode="per_example")
            experiment = _experiment(model, train, **spec)
            engine = experiment.build_cluster().engine
            assert engine.supports_fused and engine.fused_unsupported_reason is None
            fused = experiment.run()
            per_round = _experiment(model, train, **spec).run(
                callbacks=[_NoopCallback()]
            )
            assert fused.history.losses.tobytes() == per_round.history.losses.tobytes()
            assert fused.final_parameters.tobytes() == per_round.final_parameters.tobytes()

    def test_custom_mechanism_privatize_falls_back(self):
        """No round calls privatize: a mechanism that overrides it is
        refused when its cohort's owner is built, on every backend."""
        from repro.distributed.cluster import Cluster
        from repro.distributed.runtime.shard import WorkerShardSpec
        from repro.distributed.worker import compute_cohort
        from repro.privacy.mechanisms import GaussianMechanism
        from repro.simulation.engine import ClusterSimulator

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
        workers = experiment.build_workers()
        server = experiment.build_server()
        spec = WorkerShardSpec(
            shard_id=0,
            worker_ids=(0, 1, 2),
            model=model,
            datasets=(train,) * 3,
            batch_size=10,
            root_seed=3,
            g_max=1e-2,
            mechanism=experiment.mechanism,
        )
        owners = {
            "cluster": lambda: Cluster(server=server, honest_workers=workers),
            "simulator": lambda: ClusterSimulator(server=server, honest_workers=workers),
            "shard": spec.build_workers,
            "compute_cohort": lambda: compute_cohort(
                workers, np.zeros(model.dimension), 1
            ),
        }
        for name, build in owners.items():
            with pytest.raises(
                ConfigurationError,
                match="^no cohort pass for these workers: "
                "mechanism OddMechanism overrides privatize$",
            ):
                build()

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
        """The server updates its buffer through out= and copies in an
        array the optimizer returns instead, so an optimizer overriding
        step() fuses, its override honoured as it is per round."""
        from repro.optim.sgd import SGDOptimizer

        class ClampedSGD(SGDOptimizer):
            def step(self, parameters, gradient, out=None):
                updated = super().step(parameters, gradient)
                self.returned = np.clip(updated, -1.0, 1.0)
                return self.returned

        model, train = _environment()

        def experiment(optimizer):
            built = _experiment(
                model, train, gar="average", attack=None, n=3, f=0,
                momentum=0.0, g_max=None,
            )
            built.build_server()._optimizer = optimizer(500.0)
            return built

        clamped = experiment(ClampedSGD)
        assert clamped.build_cluster().engine.supports_fused
        fused = clamped.run()
        per_round = experiment(ClampedSGD).run(callbacks=[_NoopCallback()])
        assert fused.history.losses.tobytes() == per_round.history.losses.tobytes()
        assert fused.final_parameters.tobytes() == per_round.final_parameters.tobytes()
        assert np.all(np.abs(fused.final_parameters) <= 1.0)
        # The server copied in the array the override returned.
        returned = clamped.build_server().optimizer.returned
        assert fused.final_parameters.tobytes() == returned.tobytes()
        unclamped = experiment(SGDOptimizer).run()
        assert np.abs(unclamped.final_parameters).max() > 1.0

    def test_sample_noise_override_falls_back(self):
        """A mechanism overriding sample_noise draws its block one round
        at a time (the base class's loop), so it fuses with its own
        noise, bit-identical to stepping per round."""
        from repro.privacy.mechanisms import GaussianMechanism

        class HalfNoise(GaussianMechanism):
            def sample_noise(self, dimension, rng):
                return 0.5 * super().sample_noise(dimension, rng)

        model, train = _environment()

        def experiment(mechanism):
            built = _experiment(
                model, train, gar="average", attack=None, n=3, f=0, momentum=0.0
            )
            built.mechanism = mechanism(epsilon=0.5, delta=1e-6, l2_sensitivity=0.002)
            return built

        halved = experiment(HalfNoise)
        assert halved.build_cluster().engine.supports_fused
        fused = halved.run()
        per_round = experiment(HalfNoise).run(callbacks=[_NoopCallback()])
        assert fused.history.losses.tobytes() == per_round.history.losses.tobytes()
        assert fused.final_parameters.tobytes() == per_round.final_parameters.tobytes()
        plain = experiment(GaussianMechanism).run()
        assert fused.final_parameters.tobytes() != plain.final_parameters.tobytes()

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
        """A model subclass overriding gradient_stack keeps its own
        gradients under an inherited single pass: the cohort pass runs
        the two methods, fused as per round, bit for bit."""

        class Regularized(LogisticRegressionModel):
            def gradient_stack(self, parameters, features_stack, labels_stack):
                return super().gradient_stack(
                    parameters, features_stack, labels_stack
                ) + 0.01 * parameters

        _, train = _environment()
        model = Regularized(10)
        spec = dict(gar="average", attack=None, n=3, f=0, momentum=0.0, epsilon=None)
        cluster = _experiment(model, train, **spec).build_cluster()
        assert cluster.engine.supports_fused
        fused = _experiment(model, train, **spec).run()
        per_round = _experiment(model, train, **spec).run(callbacks=[_NoopCallback()])
        assert fused.history.losses.tobytes() == per_round.history.losses.tobytes()
        assert fused.final_parameters.tobytes() == per_round.final_parameters.tobytes()
        plain = _experiment(LogisticRegressionModel(10), train, **spec).run()
        assert fused.final_parameters.tobytes() != plain.final_parameters.tobytes()

    def test_fallback_path_still_bit_identical(self):
        """A per_example config, fused and forced per round: identical."""
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
        result = cluster.engine.run(3)
        assert result.honest_submitted.shape == (6, 11)
        assert result.honest_clean.shape == (6, 11)
        assert result.step == 3

    def test_record_true_matrices_are_copies(self):
        cluster = TestEligibilityFallbacks()._cluster()
        first = cluster.engine.run(1)
        frozen = first.honest_submitted.copy()
        cluster.engine.run(1)
        assert first.honest_submitted.tolist() == frozen.tolist()

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
    def test_matrix_callbacks_see_payloads(self):
        model, train = _environment()
        recorder = StepResultRecorder()
        _experiment(
            model, train, **CONFIGS["krum-little-gaussian-momentum"]
        ).run(callbacks=[recorder])
        assert len(recorder.results) == 7
        assert all(
            result.honest_submitted.shape == (6, 11) for result in recorder.results
        )

    def test_run_record_override_forces_payloads(self):
        """A callback-free (fused) loop's last result carries the matrices."""
        from repro.pipeline.loop import TrainingLoop

        model, train = _environment()
        experiment = _experiment(model, train, **CONFIGS["krum-little-gaussian-momentum"])
        cluster = experiment.build_cluster()
        assert cluster.engine.supports_fused
        loop = TrainingLoop(cluster=cluster, model=model)
        state = loop.run(4)
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


def _worker_batch_bytes(train, batch_size):
    """One worker's gathered batch: bias-augmented float64 feature rows
    and float64 labels, as the engine gathers them for linear models."""
    return batch_size * 8 * (train.features.shape[1] + 2)


class TestChunkedCohortPass:
    """The cohort pass in worker chunks equals the whole-cohort pass.

    ``_GATHER_BYTES`` sets how many workers' batches one chunk gathers;
    forcing one-worker chunks and a ragged 3 + 3 + 1 split of seven
    workers must change no bit of anything a run produces.
    """

    SPEC = dict(gar="krum", attack="little", n=10, f=3, epsilon=0.5, momentum=0.99)
    #: Gather budgets, as a function of one worker's batch bytes, and
    #: the chunk size each gives for seven workers.
    SPLITS = {"one-worker": (lambda w: 1, 1), "ragged-3+3+1": (lambda w: 3 * w, 3)}

    def _run(self, distribution, rounds=7, **overrides):
        model, train = _environment()
        spec = dict(self.SPEC, data_distribution=distribution)
        spec.update(overrides)
        cluster = _experiment(model, train, **spec).build_cluster()
        history = TrainingHistory()
        result = cluster.engine.run(rounds, history=history, block_size=3)
        return cluster, history, result

    @staticmethod
    def _assert_identical(chunked, whole):
        (cluster_a, history_a, result_a), (cluster_b, history_b, result_b) = (
            chunked,
            whole,
        )
        assert cluster_a.parameters.tobytes() == cluster_b.parameters.tobytes()
        assert history_a.losses.tobytes() == history_b.losses.tobytes()
        assert history_a.loss_steps.tolist() == history_b.loss_steps.tolist()
        for field in (
            "aggregated",
            "honest_submitted",
            "honest_clean",
            "byzantine_gradient",
            "honest_losses",
        ):
            assert (
                getattr(result_a, field).tobytes() == getattr(result_b, field).tobytes()
            ), field
        assert result_a.step == result_b.step
        for worker_a, worker_b in zip(
            cluster_a._honest_workers, cluster_b._honest_workers
        ):
            for a, b in zip(worker_a.last_batch, worker_b.last_batch):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert (
                worker_a._velocity_submitted.tobytes()
                == worker_b._velocity_submitted.tobytes()
            )
            assert (
                worker_a._velocity_clean.tobytes() == worker_b._velocity_clean.tobytes()
            )

    @pytest.mark.parametrize("distribution", ["shared", "iid-shards"])
    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_chunked_equals_default_chunk(self, monkeypatch, split, distribution):
        import repro.distributed.worker as worker_module

        whole = self._run(distribution)
        assert whole[0]._cohort_pass._features_buf.shape[0] == 7
        _, train = _environment()
        budget, chunk = self.SPLITS[split]
        monkeypatch.setattr(
            worker_module, "_GATHER_BYTES", budget(_worker_batch_bytes(train, 10))
        )
        chunked = self._run(distribution)
        assert chunked[0]._cohort_pass._features_buf.shape[0] == chunk
        self._assert_identical(chunked, whole)

    @pytest.mark.parametrize("distribution", ["shared", "iid-shards"])
    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_mid_block_divergence_identical(self, monkeypatch, split, distribution):
        """A run that diverges mid-block stops at the same round with
        the same state, the diverging round's batch included."""
        import repro.distributed.worker as worker_module
        from repro.exceptions import AggregationError, TrainingError
        from repro.models.linear import LinearRegressionModel

        _, train = _environment()
        spec = dict(
            gar="average", attack=None, n=7, f=0, epsilon=None, momentum=0.0,
            learning_rate=1e12, g_max=None, data_distribution=distribution,
        )

        def diverge():
            cluster = _experiment(
                LinearRegressionModel(10), train, **spec
            ).build_cluster()
            history = TrainingHistory()
            with pytest.raises((TrainingError, AggregationError)) as error:
                cluster.engine.run(60, history=history, block_size=16)
            return cluster, history, error.value

        whole = diverge()
        budget, _ = self.SPLITS[split]
        monkeypatch.setattr(
            worker_module, "_GATHER_BYTES", budget(_worker_batch_bytes(train, 10))
        )
        chunked = diverge()
        (cluster_a, history_a, error_a), (cluster_b, history_b, error_b) = (
            chunked,
            whole,
        )
        assert type(error_a) is type(error_b) and str(error_a) == str(error_b)
        assert cluster_a._step == cluster_b._step
        assert cluster_a._step % 16 != 0  # the divergence is mid-block
        assert history_a.losses.tobytes() == history_b.losses.tobytes()
        assert cluster_a.parameters.tobytes() == cluster_b.parameters.tobytes()
        for worker_a, worker_b in zip(
            cluster_a._honest_workers, cluster_b._honest_workers
        ):
            for a, b in zip(worker_a.last_batch, worker_b.last_batch):
                assert a.tobytes() == b.tobytes()

    def test_large_d_topk_cell_equals_cluster_step(self):
        """Krum + DP + top-k at d = 2000, where the default budget
        splits the 14 honest workers into chunks: the golden fixtures
        run at small d, where one chunk holds the whole cohort."""
        import repro.distributed.worker as worker_module

        train = make_phishing_dataset(seed=0, num_points=200, num_features=1999)
        model = LogisticRegressionModel(1999)
        spec = dict(
            gar="krum", attack="little", n=25, f=11, epsilon=0.5, momentum=0.99,
            codec="top-k", batch_size=50, num_steps=4,
        )
        fused_experiment = _experiment(model, train, **spec)
        fused = fused_experiment.run()
        per_round = _experiment(model, train, **spec).run(callbacks=[_NoopCallback()])
        assert fused.history.losses.tobytes() == per_round.history.losses.tobytes()
        assert fused.final_parameters.tobytes() == per_round.final_parameters.tobytes()
        held = fused_experiment.build_cluster()._cohort_pass._features_buf.shape[0]
        limit = max(1, worker_module._GATHER_BYTES // _worker_batch_bytes(train, 50))
        assert held <= limit
        assert 1 < held < 14
