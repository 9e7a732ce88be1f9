"""Parallel multi-seed execution.

The paper repeats every experimental cell over independent seeds; the
runs share no state, so they parallelise perfectly.  A
:class:`TrainingJob` is a picklable description of one run (environment
plus :class:`~repro.pipeline.builder.Experiment` keyword arguments);
:func:`run_jobs` executes a batch of them either serially or on a
:mod:`multiprocessing` pool.

Determinism: each job derives all randomness from its own seed, so the
parallel path returns bit-identical results to the serial path, in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

from repro.data.datasets import Dataset
from repro.distributed.runtime.context import multiprocessing_context
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.pipeline.builder import Experiment
from repro.pipeline.results import TrainingResult

__all__ = [
    "TrainingJob",
    "default_chunksize",
    "execute_job",
    "map_tasks",
    "run_jobs",
]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


@dataclass(frozen=True)
class TrainingJob:
    """One self-contained training run, safe to ship to a worker process.

    ``train_kwargs`` holds the keyword arguments of
    :class:`repro.pipeline.builder.Experiment`, minus the environment
    triple stored explicitly.  Callbacks are process-local objects and
    therefore not part of a job.
    """

    model: Model
    train_dataset: Dataset
    test_dataset: Dataset | None = None
    train_kwargs: dict = field(default_factory=dict)


def execute_job(job: TrainingJob) -> TrainingResult:
    """Run one job's :class:`~repro.pipeline.builder.Experiment` to
    completion (module-level, so pools can pickle it)."""
    experiment = Experiment(
        model=job.model,
        train_dataset=job.train_dataset,
        test_dataset=job.test_dataset,
        **job.train_kwargs,
    )
    return experiment.run()


def run_jobs(
    jobs: Iterable[TrainingJob],
    max_workers: int | None = None,
    chunksize: int = 1,
) -> list[TrainingResult]:
    """Execute ``jobs`` and return their results in submission order.

    ``max_workers=None`` (or 1) runs serially in-process; larger values
    fan the jobs out over a :mod:`multiprocessing` pool of at most
    ``min(max_workers, len(jobs))`` processes.  Both paths are
    deterministic and produce identical results: each job's rounds run
    through the same vectorized aggregation engine
    (:mod:`repro.gars.kernels`) regardless of where the job executes.

    ``chunksize`` controls how many jobs a pool worker claims at once.
    The default of 1 maximises load balance — with the vectorized
    kernels a job's wall-clock is dominated by its ``(n, d)`` shape, so
    heterogeneous grids benefit from fine-grained scheduling — while
    larger values amortise IPC for swarms of tiny jobs.
    """
    return list(map_tasks(execute_job, jobs, max_workers=max_workers, chunksize=chunksize))


def default_chunksize(num_tasks: int, pool_size: int) -> int:
    """Heuristic pool chunk: about four chunks per worker process.

    Swarms of tiny tasks (campaign smoke cells, micro-benchmarks) are
    dominated by per-task IPC when ``chunksize=1``; batching ~4 chunks
    per worker amortises that while still leaving enough chunks for the
    pool to balance moderately uneven task durations.  Small task
    counts degrade to 1, which is the old behaviour.
    """
    if num_tasks < 1 or pool_size < 1:
        return 1
    return max(1, num_tasks // (pool_size * 4))


def map_tasks(
    function: Callable[[_Task], _Result],
    tasks: Iterable[_Task],
    max_workers: int | None = None,
    chunksize: int | None = 1,
    ordered: bool = True,
) -> Iterator[_Result]:
    """Apply ``function`` to ``tasks``, yielding results incrementally.

    The generic executor behind :func:`run_jobs` (and the campaign
    runner): ``max_workers`` of ``None``/1 runs serially in-process;
    larger values fan out over a :mod:`multiprocessing` pool.
    ``ordered=True`` yields results in task order; ``ordered=False``
    yields them *as they complete*, so a consumer that persists each
    result loses at most the in-flight work on a crash — one slow task
    never holds finished results hostage inside the pool.  ``function``
    must be a picklable module-level callable and each task's result
    independent of the others, which keeps all paths bit-identical.

    ``chunksize`` controls how many tasks a pool worker claims at once:
    an explicit integer is passed through, and ``None`` applies
    :func:`default_chunksize` (which also coarsens the as-they-complete
    granularity of ``ordered=False`` to one chunk — callers persisting
    per-result should weigh that against the IPC savings).
    """
    tasks = list(tasks)
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    if chunksize is not None and chunksize < 1:
        raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
    if max_workers is None or max_workers == 1 or len(tasks) <= 1:
        for task in tasks:
            yield function(task)
        return
    pool_size = min(max_workers, len(tasks))
    if chunksize is None:
        chunksize = default_chunksize(len(tasks), pool_size)
    # Pinned start method (not the platform default): see
    # repro.distributed.runtime.context for the choice and override.
    context = multiprocessing_context()
    with context.Pool(processes=pool_size) as pool:
        mapper = pool.imap if ordered else pool.imap_unordered
        yield from mapper(function, tasks, chunksize=chunksize)

