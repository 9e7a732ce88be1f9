"""The cohort pass reproduces the stacked cohort paths it replaced, bit for bit.

:func:`stacked_oracle` is a verbatim copy of ``compute_cohort``'s two
stacked branches from before the pass: per-worker ``sample()`` gathers,
one ``np.stack`` of the batches, then either the model's own bias
concatenation inside ``loss_and_gradient_stack`` and the batched clip,
or (per-example clipping with a bound) each worker's per-example
gradients, one batched rescale, the mean and one ``loss_stack``; then
per-worker DP noise and momentum.  Each test runs twin cohorts — same
datasets, same seeds — one through :func:`compute_cohort` and one
through the oracle, and compares by ``tobytes``: the returned
submitted/clean/loss arrays, every worker's velocity buffers and
``last_batch``, and every generator's state after the round.
"""

import gc
import types
import weakref

import numpy as np
import pytest

from repro.attacks.base import ByzantineAttack
from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.distributed.cluster import Cluster, RoundCore
from repro.distributed.runtime.shard import WorkerShardSpec, _fast_forward
from repro.distributed.server import ParameterServer
from repro.distributed.worker import CohortPass, HonestWorker, compute_cohort
from repro.exceptions import ConfigurationError
from repro.gars import get_gar
from repro.models.linear import LinearRegressionModel
from repro.models.logistic import LogisticRegressionModel
from repro.models.mlp import MLPClassifierModel
from repro.optim.sgd import SGDOptimizer
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import Callback, StepResultRecorder
from repro.pipeline.registry import REGISTRY
from repro.privacy.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.rng import SeedTree
from repro.simulation.engine import ClusterSimulator

NUM_FEATURES = 6
BATCH = 8
MOMENTA = {
    "off": lambda count: [0.0] * count,
    "on": lambda count: [0.9] * count,
    "mixed": lambda count: [(0.0, 0.9, 0.5)[index % 3] for index in range(count)],
}
MECHANISMS = {
    None: None,
    "gaussian": lambda: GaussianMechanism(epsilon=0.5, delta=1e-6, l2_sensitivity=0.01),
    "laplace": lambda: LaplaceMechanism(epsilon=0.5, l1_sensitivity=0.01),
}


def stacked_oracle(workers, parameters):
    """Verbatim stacked ``compute_cohort`` branches before the cohort pass."""
    batches = []
    for worker in workers:
        features, labels = worker._sampler.sample()
        worker._last_batch = (features, labels)
        batches.append((np.asarray(features), np.asarray(labels)))

    model = workers[0]._model
    features_stack = np.stack([features for features, _ in batches])
    labels_stack = np.stack([labels for _, labels in batches])
    if workers[0]._clip_mode == "per_example" and workers[0]._g_max is not None:
        per_example = np.stack(
            [
                model.per_example_gradients(parameters, features, labels)
                for features, labels in batches
            ]
        )  # (W, b, d)
        norms = np.sqrt(np.einsum("wbd,wbd->wb", per_example, per_example))
        safe_norms = np.where(norms > 0.0, norms, 1.0)
        g_max = np.array([w._g_max for w in workers])
        scales = np.minimum(1.0, g_max[:, None] / safe_norms)
        clean = (per_example * scales[:, :, None]).mean(axis=1)
        losses = model.loss_stack(
            parameters,
            np.stack([features for features, _ in batches]),
            np.stack([labels for _, labels in batches]),
        )
    else:
        if model._single_pass_conflict() is None:
            losses, gradients = model.loss_and_gradient_stack(
                parameters, features_stack, labels_stack
            )
        else:
            losses = model.loss_stack(parameters, features_stack, labels_stack)
            gradients = model.gradient_stack(parameters, features_stack, labels_stack)
        clean = np.array(gradients, dtype=np.float64)
        g_max = np.array([np.inf if w._g_max is None else w._g_max for w in workers])
        norms = np.sqrt(np.einsum("wd,wd->w", clean, clean))
        exceeds = norms > g_max  # all-zero rows have norm 0 <= g_max
        if exceeds.any():
            clean[exceeds] *= (g_max[exceeds] / norms[exceeds])[:, None]

    all_noised = all(w._mechanism is not None for w in workers)
    submitted = np.empty_like(clean) if all_noised else clean.copy()
    for index, worker in enumerate(workers):
        if worker._mechanism is not None:
            submitted[index] = worker._mechanism.privatize(
                clean[index], worker._noise_rng
            )

    momenta = np.array([w._momentum for w in workers])
    with_momentum = momenta > 0.0
    if with_momentum.any():
        dimension = clean.shape[1]
        for index, worker in enumerate(workers):
            if not with_momentum[index]:
                continue
            if worker._velocity_submitted is None:
                worker._velocity_submitted = np.zeros(dimension)
                worker._velocity_clean = np.zeros(dimension)
            worker._velocity_submitted *= worker._momentum
            worker._velocity_submitted += submitted[index]
            worker._velocity_clean *= worker._momentum
            worker._velocity_clean += clean[index]
            submitted[index] = worker._velocity_submitted
            clean[index] = worker._velocity_clean
    return submitted, clean, np.asarray(losses, dtype=np.float64)


def make_datasets(data, count, num_features=NUM_FEATURES, points=48, seed=0):
    """``count`` workers' datasets: one shared dataset, or one shard each."""
    rng = np.random.default_rng(seed)

    def dataset():
        return Dataset(
            features=rng.standard_normal((points, num_features)),
            labels=(rng.random(points) < 0.5).astype(np.float64),
        )

    if data == "shared":
        return [dataset()] * count
    return [dataset() for _ in range(count)]


def build_workers(
    model,
    datasets,
    *,
    noise=None,
    momentum="off",
    g_max=(0.05, 0.2, 0.02),
    batch_size=BATCH,
    clip_mode="batch",
    seed=5,
):
    """Workers with private SeedTree streams; ``g_max`` cycles per worker."""
    seeds = SeedTree(seed)
    count = len(datasets)
    momenta = MOMENTA[momentum](count)
    mechanism = MECHANISMS[noise]() if noise is not None else None
    return [
        HonestWorker(
            worker_id=index,
            model=model,
            sampler=BatchSampler(
                datasets[index], batch_size, seeds.generator("worker", index, "batch")
            ),
            noise_rng=seeds.generator("worker", index, "noise"),
            g_max=None if g_max is None else g_max[index % len(g_max)],
            mechanism=mechanism,
            clip_mode=clip_mode,
            momentum=momenta[index],
        )
        for index in range(count)
    ]


def assert_rounds_identical(got, expected):
    for name, a, b in zip(("submitted", "clean", "losses"), got, expected):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def assert_workers_identical(workers_a, workers_b):
    for a, b in zip(workers_a, workers_b, strict=True):
        assert (
            a._sampler._rng.bit_generator.state == b._sampler._rng.bit_generator.state
        )
        assert a._noise_rng.bit_generator.state == b._noise_rng.bit_generator.state
        for va, vb in (
            (a._velocity_submitted, b._velocity_submitted),
            (a._velocity_clean, b._velocity_clean),
        ):
            assert (va is None) == (vb is None)
            if va is not None:
                assert va.tobytes() == vb.tobytes()
        assert (a.last_batch is None) == (b.last_batch is None)
        if a.last_batch is not None:
            for xa, xb in zip(a.last_batch, b.last_batch, strict=True):
                assert xa.shape == xb.shape and xa.dtype == xb.dtype
                assert xa.tobytes() == xb.tobytes()


def round_parameters(dimension, rounds, seed=9):
    rng = np.random.default_rng(seed)
    return [0.3 * rng.standard_normal(dimension) for _ in range(rounds)]


def run_twins(make, subsets=None, rounds=3):
    """Run ``make()``'s cohort through compute_cohort and its twin through
    the oracle, round by round; ``subsets`` picks each round's workers."""
    workers, twins = make(), make()
    dimension = workers[0]._model.dimension
    for index, parameters in enumerate(round_parameters(dimension, rounds)):
        chosen = range(len(workers)) if subsets is None else subsets[index]
        got = compute_cohort([workers[i] for i in chosen], parameters, index + 1)
        expected = stacked_oracle([twins[i] for i in chosen], parameters)
        assert_rounds_identical(got, expected)
        assert_workers_identical(workers, twins)
    return workers


class TestMatchesTheStackedPath:
    @pytest.mark.parametrize("momentum", sorted(MOMENTA))
    @pytest.mark.parametrize("noise", [None, "gaussian", "laplace"])
    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_logistic_cohort(self, data, noise, momentum):
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets(data, 5)
        workers = run_twins(
            lambda: build_workers(model, datasets, noise=noise, momentum=momentum)
        )
        # The stacked pass ran, on gathered pre-augmented rows.
        cohort = workers[0]._cohort_slot[0]
        assert cohort._augmented
        assert all(worker._cohort_slot[0] is cohort for worker in workers)

    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_without_clip_bound(self, data):
        model = LinearRegressionModel(NUM_FEATURES)
        datasets = make_datasets(data, 4)
        run_twins(lambda: build_workers(model, datasets, g_max=None, momentum="mixed"))

    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_simulator_style_subsets(self, data):
        """Wake subsets of one owner's pass, a single worker included,
        keyed by global worker index (each worker its own clip bound)."""
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets(data, 6)
        subsets = [(0, 1, 2, 3, 4, 5), (4,), (1, 3, 5), (0, 2), (5,)]

        def make():
            workers = build_workers(
                model, datasets, noise="gaussian", momentum="mixed",
                g_max=(0.05, 0.2, 0.02, 0.5, 0.01, 0.1),
            )
            CohortPass(workers)  # the owner's pass, as the simulator builds it
            return workers

        workers = run_twins(make, subsets=subsets, rounds=len(subsets))
        assert {worker._cohort_slot[1] for worker in workers} == set(range(6))

    def test_mlp_without_augmented_stack(self):
        model = MLPClassifierModel(NUM_FEATURES, hidden_units=5)
        datasets = make_datasets("iid-shards", 4)
        workers = run_twins(
            lambda: build_workers(model, datasets, noise="gaussian", momentum="on")
        )
        assert not workers[0]._cohort_slot[0]._augmented

    def test_single_pass_conflict_runs_two_passes(self):
        """A model overriding gradient_stack under an inherited single
        pass keeps its own gradients, as on the stacked path."""

        class Shifted(LinearRegressionModel):
            def gradient_stack(self, parameters, features_stack, labels_stack):
                return super().gradient_stack(
                    parameters, features_stack, labels_stack
                ) + 0.125

        model = Shifted(NUM_FEATURES)
        datasets = make_datasets("shared", 4)
        workers = run_twins(
            lambda: build_workers(model, datasets, noise="laplace", momentum="on")
        )
        cohort = workers[0]._cohort_slot[0]
        assert cohort._two_pass and not cohort._augmented

    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_large_d_cohort_in_3_3_1_chunks(self, monkeypatch, data):
        import repro.distributed.worker as worker_module

        num_features = 1999
        model = LogisticRegressionModel(num_features)
        datasets = make_datasets(data, 7, num_features=num_features, points=30)
        # Three workers' bias-augmented float64 rows and labels per chunk.
        per_worker = BATCH * 8 * (num_features + 2)
        monkeypatch.setattr(worker_module, "_GATHER_BYTES", 3 * per_worker)
        workers = run_twins(
            lambda: build_workers(model, datasets, noise="gaussian", momentum="mixed"),
            rounds=2,
        )
        assert workers[0]._cohort_slot[0]._features_buf.shape[0] == 3

    @pytest.mark.parametrize("momentum", sorted(MOMENTA))
    @pytest.mark.parametrize("noise", [None, "gaussian", "laplace"])
    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_per_example_cohort(self, data, noise, momentum):
        """Per-example clipping, on raw gathered rows; the bounds leave
        some examples inside them."""
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets(data, 5)
        workers = run_twins(
            lambda: build_workers(
                model, datasets, noise=noise, momentum=momentum,
                g_max=(0.05, 5.0, 0.5), clip_mode="per_example",
            )
        )
        cohort = workers[0]._cohort_slot[0]
        assert cohort._per_example and not cohort._augmented

    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_per_example_simulator_style_subsets(self, data):
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets(data, 6)
        subsets = [(0, 1, 2, 3, 4, 5), (4,), (1, 3, 5), (0, 2), (5,)]

        def make():
            workers = build_workers(
                model, datasets, noise="laplace", momentum="mixed",
                g_max=(0.05, 0.2, 0.02, 0.5, 0.01, 5.0), clip_mode="per_example",
            )
            CohortPass(workers)
            return workers

        run_twins(make, subsets=subsets, rounds=len(subsets))

    def test_per_example_mlp(self):
        model = MLPClassifierModel(NUM_FEATURES, hidden_units=5)
        datasets = make_datasets("iid-shards", 4)
        run_twins(
            lambda: build_workers(
                model, datasets, noise="gaussian", momentum="on",
                g_max=(0.05, 5.0, 0.5), clip_mode="per_example",
            )
        )

    def test_large_d_per_example_cohort_is_one_chunk(self, monkeypatch):
        """The per-example rescale spans the whole subset, whatever the
        gather budget."""
        import repro.distributed.worker as worker_module

        num_features = 1999
        model = LogisticRegressionModel(num_features)
        datasets = make_datasets("iid-shards", 7, num_features=num_features, points=30)
        monkeypatch.setattr(worker_module, "_GATHER_BYTES", 1)
        workers = run_twins(
            lambda: build_workers(
                model, datasets, noise="gaussian", momentum="mixed",
                clip_mode="per_example",
            ),
            rounds=2,
        )
        assert workers[0]._cohort_slot[0]._features_buf.shape[0] == 7

    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_per_example_without_bound_is_batch_without_bound(self, data):
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets(data, 4)
        per_example, batch = (
            build_workers(
                model, datasets, g_max=None, momentum="mixed", clip_mode=clip_mode
            )
            for clip_mode in ("per_example", "batch")
        )
        for index, parameters in enumerate(round_parameters(model.dimension, 3)):
            assert_rounds_identical(
                compute_cohort(per_example, parameters, index + 1),
                compute_cohort(batch, parameters, index + 1),
            )
            assert_workers_identical(per_example, batch)
        # The batch pass ran, on pre-augmented rows.
        assert per_example[0]._cohort_slot[0]._augmented

    def test_per_example_clip_counts_rows(self):
        """``run`` returns the rows holding at least one rescaled example."""
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets("shared", 3)
        workers = build_workers(
            model, datasets, g_max=(1e-3, 1e3, 0.5), clip_mode="per_example"
        )
        parameters = round_parameters(model.dimension, 1)[0]
        rows = np.stack([w._sampler.sample_indices() for w in workers])
        exceeded = []
        for worker, worker_rows in zip(workers, rows):
            dataset = worker._sampler.dataset
            gradients = model.per_example_gradients(
                parameters, dataset.features[worker_rows], dataset.labels[worker_rows]
            )
            exceeded.append(np.linalg.norm(gradients, axis=1) > worker._g_max)
        # One row clipped whole, one untouched, one in part.
        assert [flags.all() for flags in exceeded] == [True, False, False]
        assert [flags.any() for flags in exceeded] == [True, False, True]
        cohort = CohortPass(workers)
        clipped = cohort.run(parameters, rows, np.empty(3), np.empty((3, model.dimension)))
        assert clipped == 2


class TestSharedState:
    def _cluster(self, data="shared"):
        model = LogisticRegressionModel(NUM_FEATURES)
        workers = build_workers(
            model, make_datasets(data, 5), noise="gaussian", momentum="on"
        )
        server = ParameterServer(
            initial_parameters=np.zeros(model.dimension),
            gar=get_gar("average", 5, 0),
            optimizer=SGDOptimizer(0.5),
        )
        return Cluster(server=server, honest_workers=workers)

    def test_round_results_stay_separate(self):
        """Round t's StepResult is unchanged by round t + 1."""
        cluster = self._cluster()
        first = cluster.step()
        fields = ("honest_submitted", "honest_clean", "honest_losses", "aggregated")
        saved = {name: getattr(first, name).tobytes() for name in fields}
        second = cluster.step()
        for name in fields:
            assert getattr(first, name).tobytes() == saved[name], name
            assert not np.shares_memory(getattr(first, name), getattr(second, name))

    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_engine_runs_the_cluster_pass(self, data):
        """Per-round steps and fused blocks share one pass, and with it
        one gather source per dataset."""
        cluster = self._cluster(data)
        cluster.step()
        cohort = cluster._cohort_pass
        sources = [features for features, _ in cohort._sources]
        cluster.engine.run(3)
        assert cluster.engine._cohort_pass is cohort
        assert all(
            after is before
            for (after, _), before in zip(cohort._sources, sources, strict=True)
        )
        distinct = {id(features) for features in sources}
        assert len(distinct) == (1 if data == "shared" else 5)

    @staticmethod
    def _experiment(**overrides):
        """A momentum run under attack, with DP."""
        settings = dict(
            model=LogisticRegressionModel(NUM_FEATURES),
            train_dataset=make_datasets("shared", 1, points=80)[0],
            test_dataset=None,
            num_steps=4,
            n=7,
            f=2,
            gar="krum",
            attack="little",
            epsilon=0.5,
            momentum=0.9,
            batch_size=BATCH,
            g_max=1e-2,
            seed=4,
        )
        return Experiment(**{**settings, **overrides})

    @staticmethod
    def _assert_stack_rows(workers):
        """Each momentum worker's two buffers are its rows of its pass's
        velocity stack, not copies."""
        for worker in workers:
            cohort, position = worker._cohort_slot
            buffers = (worker._velocity_submitted, worker._velocity_clean)
            for buffer, row in zip(buffers, cohort._velocity[:, position], strict=True):
                assert np.shares_memory(buffer, cohort._velocity)
                assert buffer.tobytes() == row.tobytes()
        assert any(np.any(worker._velocity_submitted != 0.0) for worker in workers)

    @pytest.mark.parametrize(
        "path", ["per-round", "fused", "shard", "simulator-subset", "resume"]
    )
    def test_momentum_lives_in_the_pass_stack(self, path, tmp_path):
        if path == "shard":
            model = LogisticRegressionModel(NUM_FEATURES)
            spec = WorkerShardSpec(
                shard_id=0,
                worker_ids=(0, 1, 2),
                model=model,
                datasets=tuple(make_datasets("iid-shards", 3)),
                batch_size=BATCH,
                root_seed=17,
                g_max=0.05,
                mechanism=MECHANISMS["gaussian"](),
                momentum=0.9,
            )
            workers = spec.build_workers()
            for step, parameters in enumerate(round_parameters(model.dimension, 2)):
                compute_cohort(workers, parameters, step + 1)
        elif path == "resume":
            checkpoint = tmp_path / "state.json"
            self._experiment(num_steps=2, checkpoint=checkpoint).run()
            experiment = self._experiment(checkpoint=checkpoint)
            experiment.resume()
            workers = experiment.build_workers()
        else:
            experiment = self._experiment(
                participation_rate=0.5 if path == "simulator-subset" else 1.0
            )
            if path == "simulator-subset":
                experiment.simulate()
            else:
                experiment.run(callbacks=[Callback()] if path == "per-round" else [])
            workers = experiment.build_workers()
        self._assert_stack_rows(workers)

    def test_a_second_owner_carries_the_velocity(self):
        """build_simulation() after build_cluster() builds a second pass
        over the same workers: it takes over their velocity, and the
        cluster's engine and Cluster.step then run on it exactly as a
        run with one owner does."""

        def rounds(second_owner):
            experiment = self._experiment()
            cluster = experiment.build_cluster()
            cluster.engine.run(2)
            if second_owner:
                workers = experiment.build_workers()
                before = [worker._velocity_submitted.copy() for worker in workers]
                simulator = experiment.build_simulation()
                for worker, velocity in zip(workers, before, strict=True):
                    assert worker._cohort_slot[0] is simulator._cohort_pass
                    assert worker._velocity_submitted.tobytes() == velocity.tobytes()
            cluster.engine.run(2)
            return cluster, cluster.step()

        carried, carried_result = rounds(second_owner=True)
        fresh, fresh_result = rounds(second_owner=False)
        assert carried.parameters.tobytes() == fresh.parameters.tobytes()
        for name in ("honest_submitted", "honest_clean", "aggregated"):
            assert (
                getattr(carried_result, name).tobytes()
                == getattr(fresh_result, name).tobytes()
            ), name
        self._assert_stack_rows(carried.honest_workers)

    def test_the_attack_sees_copies(self):
        """An attack writing into its context changes neither the wire
        nor the rows a StepResult-holding callback keeps, per round."""
        runs = {}
        for scribble in (False, True):
            recorder = StepResultRecorder()
            result = self._experiment(attack=_MeanAttack(scribble)).run(
                callbacks=[recorder]
            )
            runs[scribble] = result, recorder.results
        (clean_run, clean_rounds), (scribbled_run, scribbled_rounds) = (
            runs[False],
            runs[True],
        )
        assert (
            scribbled_run.final_parameters.tobytes()
            == clean_run.final_parameters.tobytes()
        )
        for scribbled, clean in zip(scribbled_rounds, clean_rounds, strict=True):
            for name in ("honest_submitted", "honest_clean", "byzantine_gradient"):
                assert getattr(scribbled, name).tobytes() == getattr(clean, name).tobytes()
            assert not np.any(scribbled.honest_submitted == 7.0)


class _MeanAttack(ByzantineAttack):
    """Sends the honest mean; with ``scribble``, then overwrites every
    array its context holds, as an attack keeping its context might."""

    name = "mean"

    def __init__(self, scribble: bool):
        super().__init__()
        self._scribble = scribble

    def craft(self, context):
        gradient = context.honest_submitted.mean(axis=0)
        if self._scribble:
            for array in (
                context.honest_submitted,
                context.honest_clean,
                context.parameters,
            ):
                array[...] = 7.0
        return gradient


class _ShuffledSampler(BatchSampler):
    def sample_indices(self):
        return super().sample_indices()[::-1]


def _cohort(**odd):
    """A model and three workers, the last built with ``odd``'s keywords."""
    model = LogisticRegressionModel(NUM_FEATURES)
    datasets = make_datasets("iid-shards", 3)
    seeds = SeedTree(1)

    def worker(index, model=model, dataset=None, batch_size=BATCH,
               clip_mode="batch", g_max=0.05, sampler=BatchSampler):
        return HonestWorker(
            worker_id=index,
            model=model,
            sampler=sampler(
                datasets[index] if dataset is None else dataset,
                batch_size,
                seeds.generator("worker", index, "batch"),
            ),
            noise_rng=seeds.generator("worker", index, "noise"),
            g_max=g_max,
            clip_mode=clip_mode,
        )

    return model, [worker(0), worker(1), worker(2, **odd)]


def _server(model, n):
    return ParameterServer(
        initial_parameters=np.zeros(model.dimension),
        gar=get_gar("average", n, 0),
        optimizer=SGDOptimizer(0.5),
    )


class TestRefusals:
    """A cohort the pass cannot serve fails when its owner is built."""

    REASONS = {
        "mixed models": dict(model=LogisticRegressionModel(NUM_FEATURES)),
        "mixed batch sizes": dict(batch_size=BATCH - 1),
        "mixed dataset shapes": dict(
            dataset=make_datasets("shared", 1, num_features=NUM_FEATURES + 1)[0]
        ),
        "mixed clip kinds": dict(clip_mode="per_example"),
        "sampler _ShuffledSampler overrides sampling": dict(sampler=_ShuffledSampler),
    }

    @pytest.mark.parametrize("reason", sorted(REASONS))
    @pytest.mark.parametrize("owner", ["cluster", "simulator", "compute_cohort"])
    def test_owner_refuses(self, owner, reason):
        model, workers = _cohort(**self.REASONS[reason])
        states = [w._sampler._rng.bit_generator.state for w in workers]
        with pytest.raises(
            ConfigurationError, match=f"^no cohort pass for these workers: {reason}$"
        ):
            if owner == "cluster":
                Cluster(server=_server(model, 3), honest_workers=workers)
            elif owner == "simulator":
                ClusterSimulator(server=_server(model, 3), honest_workers=workers)
            else:
                compute_cohort(workers, np.zeros(model.dimension), 1)
        # Refused before any batch was drawn.
        assert [w._sampler._rng.bit_generator.state for w in workers] == states

    def test_per_example_without_bound_joins_a_batch_cohort(self):
        """Without a bound a per-example worker clips nothing, like a
        batch worker without one, so the two share a pass."""
        model, workers = _cohort(clip_mode="per_example", g_max=None)
        Cluster(server=_server(model, 3), honest_workers=workers).step()


class TestLifetime:
    """A finished run frees its pass, and with it the gather buffers,
    without a full garbage collection."""

    @pytest.mark.parametrize("mode", ["fused", "per-round", "simulated"])
    def test_pass_dies_with_its_experiment(self, mode):
        experiment = Experiment(
            model=LogisticRegressionModel(NUM_FEATURES),
            train_dataset=make_datasets("shared", 1, points=80)[0],
            test_dataset=None,
            num_steps=5,
            n=7,
            f=2,
            gar="krum",
            attack="little",
            epsilon=0.5,
            momentum=0.9,
            batch_size=BATCH,
            g_max=1e-2,
            seed=4,
        )
        gc.collect()
        gc.disable()
        try:
            if mode == "simulated":
                experiment.simulate()
                owner = experiment.build_simulation()
            else:
                experiment.run(callbacks=[Callback()] if mode == "per-round" else [])
                owner = experiment.build_cluster()
                assert owner.engine._buffers_ready == (mode == "fused")
            cohort = weakref.ref(owner._cohort_pass)
            assert cohort()._features_buf is not None
            del experiment, owner
            assert cohort() is None
        finally:
            gc.enable()


class TestShardFastForward:
    """A respawned shard's draw-only fast-forward leaves every stream
    where replaying compute_cohort through the outage left it."""

    @pytest.mark.parametrize("start_step", [0, 1, 37])
    @pytest.mark.parametrize("dp", [False, True])
    def test_streams_match_a_compute_cohort_replay(self, dp, start_step):
        model = LogisticRegressionModel(NUM_FEATURES)
        spec = WorkerShardSpec(
            shard_id=1,
            worker_ids=(3, 4, 5),
            model=model,
            datasets=tuple(make_datasets("iid-shards", 3)),
            batch_size=BATCH,
            root_seed=17,
            g_max=0.05,
            mechanism=MECHANISMS["gaussian"]() if dp else None,
            momentum=0.9,
            start_step=start_step,
        )
        forwarded, replayed = spec.build_workers(), spec.build_workers()
        _fast_forward(spec, forwarded)
        zeros = np.zeros(model.dimension)
        for step in range(1, start_step + 1):
            compute_cohort(replayed, zeros, step)
        for worker in replayed:
            worker.reset()
        assert_workers_identical(forwarded, replayed)
        # And the next served round agrees, bit for bit.
        parameters = round_parameters(model.dimension, 1)[0]
        assert_rounds_identical(
            compute_cohort(forwarded, parameters, start_step + 1),
            compute_cohort(replayed, parameters, start_step + 1),
        )


#: One instance's keywords per registered codec.
CODECS = {
    "identity": {},
    "top-k": {"fraction": 0.25},
    "sign": {},
    "qsgd": {"levels": 8, "seed": 3},
    "discrete-gaussian": {"granularity": 1.0 / 64, "sigma": 1.0, "seed": 3},
}


def build_codec(name):
    return REGISTRY.build("codec", {"name": name, **CODECS[name]})


class TestByzantineRows:
    """A deterministic codec encodes the f Byzantine copies once."""

    def test_every_registered_codec_is_covered(self):
        assert set(CODECS) == set(REGISTRY.available("codec"))

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_rows_equal_the_tiled_block_encode(self, name):
        codec = build_codec(name)
        gradient = np.random.default_rng(2).standard_normal(40)
        ids = range(6, 11)
        core = types.SimpleNamespace(_codec=codec)
        rows, nbytes = RoundCore._byzantine_rows(core, gradient, 4, ids)
        expected, expected_bytes = codec.encode_block(
            np.tile(gradient, (len(ids), 1)), 4, ids
        )
        assert rows.tobytes() == np.asarray(expected).tobytes()
        assert nbytes == int(expected_bytes.sum())
        out = np.full((len(ids), 40), np.nan)
        written, _ = RoundCore._byzantine_rows(core, gradient, 4, ids, out=out)
        assert written is out and out.tobytes() == rows.tobytes()

    def test_without_codec_rows_are_copies(self):
        gradient = np.arange(5.0)
        core = types.SimpleNamespace(_codec=None)
        rows, nbytes = RoundCore._byzantine_rows(core, gradient, 1, (3, 4, 5))
        assert nbytes == 0
        assert rows.tobytes() == np.tile(gradient, (3, 1)).tobytes()

    @pytest.mark.parametrize(
        "name", sorted(name for name in CODECS if not build_codec(name).stochastic)
    )
    def test_deterministic_codecs_encode_the_vector_alone(self, name):
        """``stochastic = False``: identical rows under different (step,
        worker) ids encode identically, and an f-row block of one vector
        is one encoded row, tiled."""
        codec = build_codec(name)
        vector = np.random.default_rng(8).standard_normal(33)
        encodings = [
            codec.encode_row(vector, step, worker)
            for step, worker in ((1, 0), (1, 7), (9, 2), (250, 11))
        ]
        for wire, nbytes in encodings[1:]:
            assert wire.tobytes() == encodings[0][0].tobytes()
            assert nbytes == encodings[0][1]
        block, block_bytes = codec.encode_block(
            np.tile(vector, (11, 1)), 5, range(14, 25)
        )
        row, row_bytes = codec.encode_block(vector[np.newaxis], 5, [14])
        assert np.asarray(block).tobytes() == np.tile(row, (11, 1)).tobytes()
        assert block_bytes.tolist() == [int(row_bytes[0])] * 11
