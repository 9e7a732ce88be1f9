"""The cohort pass and the noise pre-draw on several threads.

At large d :class:`CohortPass` deals its gather chunks, and a large
noise block's rows, over ``min(CPUs, 2, items)`` threads.  These tests
patch that thread count to 1, 2 and 3 and check that nothing a pass or
a fused run produces changes by a bit, that a failing chunk
raises the same exception at every thread count, that workers sharing a
noise stream keep the worker-order draw, and that no thread outlives a
call (so shards forked afterwards run).
"""

import os
import sys
import threading

import numpy as np
import pytest

import repro.distributed.worker as worker_module
from repro.data.datasets import Dataset
from repro.data.phishing import make_phishing_dataset
from repro.distributed.worker import CohortPass
from repro.metrics.history import TrainingHistory
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from tests.test_cohort_pass import (
    BATCH,
    NUM_FEATURES,
    build_workers,
    make_datasets,
    round_parameters,
)

THREADS = (1, 2, 3)


def use_threads(monkeypatch, count):
    monkeypatch.setattr(worker_module, "_threads", lambda: count)


@pytest.fixture
def deals(monkeypatch):
    """``(items, threads)`` of every fan-out the pass makes."""
    calls = []
    original = worker_module._deal

    def spy(count, threads, work):
        calls.append((count, threads))
        return original(count, threads, work)

    monkeypatch.setattr(worker_module, "_deal", spy)
    return calls


def run_pass(workers, parameters):
    """One :meth:`CohortPass.run` over ``workers``: the pass, and the
    bytes of its losses and clean rows with its clip count."""
    cohort = CohortPass(workers)
    rows = np.concatenate([worker._sampler.sample_index_block(1) for worker in workers])
    losses = np.empty(len(workers))
    clean = np.empty((len(workers), len(parameters)))
    clipped = cohort.run(parameters, rows, losses, clean)
    return cohort, (losses.tobytes(), clean.tobytes(), clipped)


class TestPassBits:
    @pytest.mark.parametrize("data", ["shared", "iid-shards"])
    def test_small_d_in_forced_chunks(self, monkeypatch, data):
        """Seven workers in 2 + 2 + 2 + 1 chunks, as a shrunken gather
        budget deals them."""
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets(data, 7)
        per_worker = BATCH * 8 * (NUM_FEATURES + 2)
        monkeypatch.setattr(worker_module, "_GATHER_BYTES", 2 * per_worker)
        (parameters,) = round_parameters(model.dimension, 1)
        outputs = {}
        for threads in THREADS:
            use_threads(monkeypatch, threads)
            cohort, outputs[threads] = run_pass(build_workers(model, datasets), parameters)
            assert len(cohort._buffers) == threads
        assert outputs[1][2] > 0  # the clip rescaled some rows
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    def test_d_10001_cohort(self, monkeypatch):
        """Four workers at d = 10 001, one per chunk under the default
        budget: the regime the threads are for."""
        model = LogisticRegressionModel(10_000)
        datasets = make_datasets("shared", 4, num_features=10_000, points=60)
        (parameters,) = round_parameters(model.dimension, 1)
        outputs = {}
        for threads in THREADS:
            use_threads(monkeypatch, threads)
            cohort, outputs[threads] = run_pass(
                build_workers(model, datasets, batch_size=50), parameters
            )
            assert cohort._features_buf.shape[0] == 1
            assert len(cohort._buffers) == threads
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        """Seven one-worker chunks on seven threads, switching every few
        microseconds: a lost or misplaced row would change the bytes."""
        model = LogisticRegressionModel(NUM_FEATURES)
        datasets = make_datasets("iid-shards", 7)
        monkeypatch.setattr(worker_module, "_GATHER_BYTES", 1)
        (parameters,) = round_parameters(model.dimension, 1)
        use_threads(monkeypatch, 1)
        _, expected = run_pass(build_workers(model, datasets), parameters)
        use_threads(monkeypatch, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                cohort, got = run_pass(build_workers(model, datasets), parameters)
                assert got == expected
        finally:
            sys.setswitchinterval(interval)
        assert len(cohort._buffers) == 7

    def test_threads_follow_the_affinity_mask(self):
        """Unpatched, a pass makes one buffer pair per CPU the process
        may run on, at most two and at most one per chunk (CI runs this
        file again on one CPU)."""
        model = LogisticRegressionModel(10_000)
        datasets = make_datasets("shared", 3, num_features=10_000, points=60)
        (parameters,) = round_parameters(model.dimension, 1)
        cohort, _ = run_pass(build_workers(model, datasets, batch_size=50), parameters)
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count()
        assert len(cohort._buffers) == min(cpus, 2, 3)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no masks")
    def test_many_cpus_still_make_two_threads(self, monkeypatch):
        """On a 16-CPU mask a four-chunk pass gathers into two buffer
        pairs: the scratch does not grow with the host."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
        assert worker_module._threads() == 2
        model = LogisticRegressionModel(10_000)
        datasets = make_datasets("shared", 4, num_features=10_000, points=60)
        (parameters,) = round_parameters(model.dimension, 1)
        cohort, _ = run_pass(build_workers(model, datasets, batch_size=50), parameters)
        assert cohort._features_buf.shape[0] == 1
        assert len(cohort._buffers) == 2

    def test_small_d_cohort_starts_no_thread(self, monkeypatch, deals):
        """One chunk holds a small-d cohort: one group, whatever the CPUs."""
        use_threads(monkeypatch, 3)
        model = LogisticRegressionModel(NUM_FEATURES)
        workers = build_workers(model, make_datasets("shared", 7), noise="gaussian")
        (parameters,) = round_parameters(model.dimension, 1)
        cohort, _ = run_pass(workers, parameters)
        cohort.draw_noise(np.empty((4, 7, model.dimension)))
        assert len(cohort._buffers) == 1
        assert deals == [(1, 1), (7, 1)]


class TestEngineRuns:
    def test_threaded_predraw_equals_one_thread(self, monkeypatch, deals):
        """Krum + DP + momentum at d = 2 000: a 36-round block's noise
        (8 MB) is drawn over the threads, and the pass runs 3 chunks."""
        train = make_phishing_dataset(seed=0, num_points=150, num_features=1999)

        def run(threads):
            use_threads(monkeypatch, threads)
            cluster = Experiment(
                model=LogisticRegressionModel(1999),
                train_dataset=train,
                test_dataset=None,
                num_steps=40,
                n=25,
                f=11,
                gar="krum",
                attack="little",
                epsilon=0.5,
                momentum=0.99,
                batch_size=50,
                seed=3,
            ).build_cluster()
            history = TrainingHistory()
            cluster.engine.run(40, history=history)
            return cluster, history

        runs = {}
        for threads in THREADS:
            deals.clear()
            runs[threads] = run(threads)
            assert (14, threads) in deals  # the 36-round block's draw
            assert (3, threads) in deals  # each round's pass
        cluster_a, history_a = runs[1]
        for cluster_b, history_b in (runs[2], runs[3]):
            assert cluster_b.parameters.tobytes() == cluster_a.parameters.tobytes()
            assert history_b.losses.tobytes() == history_a.losses.tobytes()
            assert history_b.loss_steps.tolist() == history_a.loss_steps.tolist()
            for worker_a, worker_b in zip(
                cluster_a._honest_workers, cluster_b._honest_workers, strict=True
            ):
                for a, b in (
                    (worker_a._velocity_submitted, worker_b._velocity_submitted),
                    (worker_a._velocity_clean, worker_b._velocity_clean),
                    *zip(worker_a.last_batch, worker_b.last_batch),
                ):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class _Fragile(LogisticRegressionModel):
    """Raises on a batch holding a label above 1, naming that label."""

    def loss_stack(self, parameters, features_stack, labels_stack):
        poison = labels_stack[labels_stack > 1.0]
        if poison.size:
            raise ValueError(f"poisoned batch {poison[0]}")
        return super().loss_stack(parameters, features_stack, labels_stack)


class TestErrors:
    def test_failing_chunk_raises_alike_at_every_thread_count(self, monkeypatch):
        """Workers 2 and 5 poison their batches; every thread count
        raises worker 2's exception, after joining every thread."""
        model = _Fragile(NUM_FEATURES)
        datasets = make_datasets("iid-shards", 7)
        for worker, label in ((2, 7.0), (5, 8.0)):
            datasets[worker] = Dataset(
                features=datasets[worker].features,
                labels=np.full(len(datasets[worker].labels), label),
            )
        monkeypatch.setattr(worker_module, "_GATHER_BYTES", 1)  # one worker a chunk
        (parameters,) = round_parameters(model.dimension, 1)
        before = threading.active_count()
        for threads in THREADS:
            use_threads(monkeypatch, threads)
            with pytest.raises(ValueError, match=r"^poisoned batch 7\.0$"):
                run_pass(build_workers(model, datasets), parameters)
            assert threading.active_count() == before

    def test_an_interrupt_goes_before_a_chunk_error(self):
        """The caller's interrupt at item 2 wins over a helper's error at
        item 1: an interrupt is never swallowed."""

        def work(item, group):
            if item == 1:
                raise ValueError("chunk 1")
            if item == 2:
                raise KeyboardInterrupt

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            worker_module._deal(4, 2, work)
        assert threading.active_count() == before


class TestSharedStreams:
    def test_shared_noise_stream_keeps_worker_order(self, monkeypatch, deals):
        """A block over the threshold whose workers share one generator
        is drawn on the caller, worker by worker, as before."""
        use_threads(monkeypatch, 2)
        model = LogisticRegressionModel(NUM_FEATURES)
        workers = build_workers(model, make_datasets("shared", 4), noise="gaussian")
        for worker in workers:
            worker._noise_rng = np.random.default_rng(7)
        shared = workers[0]._noise_rng
        for worker in workers[1:]:
            worker._noise_rng = shared
        cohort = CohortPass(workers)
        rounds = -(-worker_module._GATHER_BYTES // (4 * model.dimension * 8))
        noise = np.empty((rounds, 4, model.dimension))
        cohort.draw_noise(noise)
        twin = np.random.default_rng(7)
        mechanism = workers[0]._mechanism
        expected = np.stack(
            [mechanism.sample_noise_block(rounds, model.dimension, twin) for _ in workers],
            axis=1,
        )
        assert noise.tobytes() == expected.tobytes()
        assert deals == [(4, 1)]

    def test_private_streams_draw_over_the_threads(self, monkeypatch, deals):
        """The same block with a stream per worker is threaded and reads
        each stream exactly as a one-thread draw does."""
        model = LogisticRegressionModel(NUM_FEATURES)
        rounds = -(-worker_module._GATHER_BYTES // (4 * model.dimension * 8))
        blocks = {}
        for threads in THREADS:
            use_threads(monkeypatch, threads)
            workers = build_workers(model, make_datasets("shared", 4), noise="laplace")
            noise = np.empty((rounds, 4, model.dimension))
            CohortPass(workers).draw_noise(noise)
            blocks[threads] = noise.tobytes()
            assert deals[-1] == (4, threads)
        assert blocks[2] == blocks[1]
        assert blocks[3] == blocks[1]


class TestLifetime:
    def test_no_thread_outlives_a_pass_and_shards_fork_after(self, monkeypatch, deals):
        """A threaded pass and pre-draw leave the thread count where it
        was, so a multiprocess run forked afterwards completes its
        rounds (a fork with a live thread warns on Python 3.12)."""
        use_threads(monkeypatch, 2)
        model = LogisticRegressionModel(10_000)
        datasets = make_datasets("shared", 3, num_features=10_000, points=60)
        workers = build_workers(model, datasets, noise="gaussian", batch_size=50)
        (parameters,) = round_parameters(model.dimension, 1)
        before = threading.active_count()
        cohort, _ = run_pass(workers, parameters)
        cohort.draw_noise(np.empty((20, 3, model.dimension)))
        assert deals == [(3, 2), (3, 2)]
        assert threading.active_count() == before
        result = Experiment(
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
        ).run()
        assert not result.departed
        assert len(result.history.losses) == 4
