"""StepResult instrumentation under the vectorized engine.

The cohort-batched ``Cluster.step`` must keep every per-round
instrumentation matrix (honest clean / honest submitted / Byzantine
vector / aggregate) with the shapes, dtypes, and semantics the analysis
layer consumes — including the ``f = 0`` (no attack) path and the
dropped-message (lossy network) path.
"""

from collections import Counter

import numpy as np
import pytest

from repro.attacks import get_attack
from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.data.phishing import make_phishing_dataset
from repro.distributed.cluster import Cluster
from repro.distributed.network import LossyNetwork
from repro.distributed.server import ParameterServer
from repro.distributed.worker import HonestWorker, compute_cohort
from repro.exceptions import ConfigurationError
from repro.gars import get_gar
from repro.models.linear import LinearRegressionModel
from repro.models.logistic import LogisticRegressionModel
from repro.optim.sgd import SGDOptimizer
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import Callback
from repro.rng import SeedTree
from tests.reference_loop import _reference_finish

NUM_FEATURES = 3
DIMENSION = NUM_FEATURES + 1  # bias folded in


def build_cluster(
    n=7,
    f=2,
    num_byzantine=2,
    gar="median",
    attack="little",
    seed=0,
    g_max=1e-2,
    momentum=0.9,
    network=None,
):
    seeds = SeedTree(seed)
    rng = np.random.default_rng(1)
    dataset = Dataset(
        features=rng.standard_normal((60, NUM_FEATURES)),
        labels=rng.standard_normal(60),
    )
    model = LinearRegressionModel(NUM_FEATURES)
    workers = [
        HonestWorker(
            worker_id=i,
            model=model,
            sampler=BatchSampler(dataset, 8, seeds.generator("batch", i)),
            noise_rng=seeds.generator("noise", i),
            g_max=g_max,
            momentum=momentum,
        )
        for i in range(n - num_byzantine)
    ]
    server = ParameterServer(
        initial_parameters=np.zeros(model.dimension),
        gar=get_gar(gar, n, f),
        optimizer=SGDOptimizer(0.1),
    )
    resolved = get_attack(attack) if attack else None
    return Cluster(
        server=server,
        honest_workers=workers,
        num_byzantine=num_byzantine,
        attack=resolved,
        attack_rng=seeds.generator("attack") if resolved else None,
        network=network,
    )


class TestStepResultShapesAndDtypes:
    def test_under_attack(self):
        result = build_cluster(n=7, f=2, num_byzantine=2).step()
        assert result.step == 1
        assert result.honest_submitted.shape == (5, DIMENSION)
        assert result.honest_clean.shape == (5, DIMENSION)
        assert result.aggregated.shape == (DIMENSION,)
        assert result.byzantine_gradient is not None
        assert result.byzantine_gradient.shape == (DIMENSION,)
        for matrix in (
            result.honest_submitted,
            result.honest_clean,
            result.aggregated,
            result.byzantine_gradient,
        ):
            assert matrix.dtype == np.float64
        assert result.num_honest == 5

    def test_f_zero_no_attack_path(self):
        cluster = build_cluster(
            n=5, f=0, num_byzantine=0, gar="average", attack=None
        )
        result = cluster.step()
        assert result.byzantine_gradient is None
        assert result.honest_submitted.shape == (5, DIMENSION)
        assert result.honest_clean.shape == (5, DIMENSION)
        assert result.honest_submitted.dtype == np.float64
        assert result.num_honest == 5
        # With averaging and no attack, the aggregate is exactly the
        # mean of the honest submissions.
        assert np.allclose(
            result.aggregated, result.honest_submitted.mean(axis=0), atol=1e-15
        )

    def test_clean_differs_from_submitted_only_with_noise(self):
        """Without DP, submitted == clean (momentum applies to both)."""
        result = build_cluster().step()
        assert np.array_equal(result.honest_submitted, result.honest_clean)

    def test_step_counter_advances(self):
        cluster = build_cluster()
        for expected in (1, 2, 3):
            assert cluster.step().step == expected
        assert cluster.step_count == 3

    def test_matrices_are_per_step_snapshots(self):
        """Each round's matrices are independent arrays: mutating one
        round's instrumentation must not corrupt the next."""
        cluster = build_cluster()
        first = cluster.step()
        frozen = first.honest_submitted.copy()
        first.honest_submitted[:] = 1e9
        second = cluster.step()
        assert not np.array_equal(second.honest_submitted, first.honest_submitted)
        del frozen


class TestDroppedMessagePath:
    def test_lossy_network_zeroes_rows_before_aggregation(self):
        """Reconstruct the drop mask from an identically-seeded shadow
        network (drops are per-message deterministic) and check the
        aggregate saw zero rows for dropped messages."""
        drop_probability = 0.6
        network = LossyNetwork(drop_probability, np.random.default_rng(42))
        cluster = build_cluster(
            n=5,
            f=0,
            num_byzantine=0,
            gar="average",
            attack=None,
            momentum=0.0,
            network=network,
        )
        shadow = LossyNetwork(drop_probability, np.random.default_rng(42))
        result = cluster.step()
        dropped = np.array([shadow.drops_message(1, worker) for worker in range(5)])
        assert dropped.any()  # seed chosen so the path is actually hit
        delivered = result.honest_submitted.copy()
        delivered[dropped] = 0.0
        assert np.allclose(result.aggregated, delivered.mean(axis=0), atol=1e-15)
        assert network.dropped_total == int(dropped.sum())

    def test_instrumentation_reports_submitted_not_delivered(self):
        """honest_submitted records what workers *sent*; drops happen in
        the network, after instrumentation."""
        network = LossyNetwork(0.99, np.random.default_rng(0))
        cluster = build_cluster(
            n=4, f=0, num_byzantine=0, gar="average", attack=None,
            momentum=0.0, network=network,
        )
        result = cluster.step()
        # Despite ~every message dropping, the submitted matrix has no
        # zero rows (the linear model on random data never emits one).
        assert not np.any(np.all(result.honest_submitted == 0.0, axis=1))


class TestCohortMatchesPerWorkerPath:
    """The cohort pass and the per-worker pipeline it replaced
    (``tests.reference_loop._reference_finish``) must agree on matching
    RNG streams (same seeds, fresh workers)."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("with_noise", [False, True])
    def test_agreement(self, momentum, with_noise):
        from repro.privacy.mechanisms import GaussianMechanism

        def build_workers():
            seeds = SeedTree(3)
            rng = np.random.default_rng(1)
            dataset = Dataset(
                features=rng.standard_normal((40, NUM_FEATURES)),
                labels=rng.standard_normal(40),
            )
            model = LinearRegressionModel(NUM_FEATURES)
            mechanism = (
                GaussianMechanism(
                    epsilon=0.5, delta=1e-6, l2_sensitivity=2 * 1e-2 / 8
                )
                if with_noise
                else None
            )
            return [
                HonestWorker(
                    worker_id=i,
                    model=model,
                    sampler=BatchSampler(dataset, 8, seeds.generator("batch", i)),
                    noise_rng=seeds.generator("noise", i),
                    g_max=1e-2,
                    mechanism=mechanism,
                    momentum=momentum,
                )
                for i in range(4)
            ]

        parameters = np.linspace(-0.5, 0.5, DIMENSION)
        cohort_workers = build_workers()
        loop_workers = build_workers()
        model = LinearRegressionModel(NUM_FEATURES)  # stateless, as the workers'
        for step in (1, 2, 3):  # multiple rounds exercise momentum state
            submitted, clean, losses = compute_cohort(cohort_workers, parameters, step)
            loop = []
            for worker in loop_workers:
                worker._last_batch = worker._sampler.sample()
                loop.append(_reference_finish(worker, parameters, *worker._last_batch))
            assert np.allclose(
                submitted, np.stack([wire for wire, _ in loop]), atol=1e-12
            )
            assert np.allclose(
                clean, np.stack([row for _, row in loop]), atol=1e-12
            )
            assert np.allclose(
                losses,
                [model.loss(parameters, *worker.last_batch) for worker in loop_workers],
                atol=1e-12,
            )

    def test_heterogeneous_cohort_falls_back(self):
        """Mixed clip modes have no cohort pass: the cluster refuses
        them when it is built, before any batch is drawn."""
        rng = np.random.default_rng(2)
        dataset = Dataset(
            features=rng.standard_normal((40, NUM_FEATURES)),
            labels=rng.standard_normal(40),
        )
        model = LinearRegressionModel(NUM_FEATURES)
        seeds = SeedTree(5)
        mixed = [
            HonestWorker(
                worker_id=i,
                model=model,
                sampler=BatchSampler(dataset, 8, seeds.generator("batch", i)),
                noise_rng=seeds.generator("noise", i),
                g_max=1e-2,
                clip_mode=mode,
            )
            for i, mode in enumerate(["batch", "per_example", "batch"])
        ]
        server = ParameterServer(
            initial_parameters=np.zeros(DIMENSION),
            gar=get_gar("average", 3, 0),
            optimizer=SGDOptimizer(0.5),
        )
        with pytest.raises(ConfigurationError, match="mixed clip kinds"):
            Cluster(server=server, honest_workers=mixed)
        assert all(worker.last_batch is None for worker in mixed)


class TestOneForwardPass:
    def test_per_round_run_scores_and_differentiates_in_one_call(self):
        """Each per-round logistic round takes its honest losses and its
        cohort gradients from one loss_and_gradient_stack call."""
        model = LogisticRegressionModel(10)
        calls = Counter()
        for name in ("loss_and_gradient_stack", "gradient_stack", "loss_stack"):

            def counted(*args, _name=name, _method=getattr(model, name), **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)

            setattr(model, name, counted)
        result = Experiment(
            model=model,
            train_dataset=make_phishing_dataset(seed=0, num_points=200, num_features=10),
            test_dataset=None,
            num_steps=6,
            n=7,
            f=2,
            gar="krum",
            attack="little",
            batch_size=10,
            g_max=1e-2,
            epsilon=0.5,
            momentum=0.9,
            seed=1,
        ).run(callbacks=[Callback()])  # any callback steps per round
        assert dict(calls) == {"loss_and_gradient_stack": 6}
        assert len(result.history.losses) == 6

    def test_two_pass_override_is_honoured(self):
        """A model overriding gradient_stack while inheriting a single
        pass keeps its own gradients on the cohort path."""

        class Shifted(LinearRegressionModel):
            def gradient_stack(self, parameters, features_stack, labels_stack):
                return super().gradient_stack(
                    parameters, features_stack, labels_stack
                ) + 1.0

        dataset = Dataset(
            features=np.random.default_rng(4).standard_normal((40, NUM_FEATURES)),
            labels=np.random.default_rng(5).standard_normal(40),
        )

        def cohort(model):
            seeds = SeedTree(8)
            workers = [
                HonestWorker(
                    worker_id=i,
                    model=model,
                    sampler=BatchSampler(dataset, 8, seeds.generator("batch", i)),
                    noise_rng=seeds.generator("noise", i),
                )
                for i in range(3)
            ]
            return compute_cohort(workers, np.full(DIMENSION, 0.1), 1)

        _, shifted, shifted_losses = cohort(Shifted(NUM_FEATURES))
        _, stock, stock_losses = cohort(LinearRegressionModel(NUM_FEATURES))
        assert np.array_equal(shifted, stock + 1.0)
        assert np.array_equal(shifted_losses, stock_losses)
