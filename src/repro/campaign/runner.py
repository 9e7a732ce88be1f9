"""Campaign execution: shard pending cells over the job executor.

:func:`plan_campaign` joins a :class:`~repro.campaign.matrix.ScenarioMatrix`
against a :class:`~repro.campaign.store.ResultStore` and splits the
campaign's (cell, seed) runs into *completed* (already content-addressed
in the store) and *pending*.  :func:`run_campaign` executes the pending
runs — serially or over the :func:`repro.pipeline.parallel.map_tasks`
multiprocessing executor — persisting each record the moment it
finishes, so killing a campaign loses at most the in-flight runs and
re-invoking the same manifest completes only the missing cells.

Each run dispatches through the same entry points a direct caller would
use — :meth:`repro.pipeline.builder.Experiment.run` for ``"train"``
cells, :meth:`~repro.pipeline.builder.Experiment.simulate` for
``"simulate"`` cells — with the seed passed straight through, so
campaign execution is bit-identical to calling ``run_config`` /
``simulate`` by hand (the differential suite enforces this, parallel
and serial, cold and warm cache).

Transiently failing runs are retried with seed-deterministic
exponential backoff; a run that fails every attempt (or degrades under
its fault plan) is *quarantined* — a structured failure record lands
under its store key so the campaign finishes and resumes skip the
known-bad cell — instead of aborting the whole campaign.
Deterministic misconfiguration (the :class:`ReproError` taxonomy)
still aborts loudly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.campaign.matrix import CampaignCell, ScenarioMatrix
from repro.campaign.store import STORE_SCHEMA, ResultStore, cell_key
from repro.data.datasets import Dataset
from repro.exceptions import ConfigurationError, DegradedRunError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.models.base import Model
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import VNRatioCallback
from repro.pipeline.parallel import map_tasks
from repro.rng import SeedTree
from repro.simulation.run import SimulationResult

__all__ = [
    "CampaignPlan",
    "CampaignRunSummary",
    "CellJob",
    "execute_cell",
    "plan_campaign",
    "run_campaign",
]


@dataclass(frozen=True)
class CellJob:
    """One pending (cell, seed) run, picklable for the process pool.

    ``telemetry`` is the run's JSONL trace path (or ``None``): run
    infrastructure, deliberately excluded from the content-addressed
    store key, so warming a store with telemetry on and resuming with
    it off (or vice versa) still joins on the same cells.
    """

    key: str
    name: str
    seed: int
    mode: str
    config: ExperimentConfig
    model: Model
    train_dataset: Dataset
    test_dataset: Dataset | None
    telemetry: str | None = None


@dataclass(frozen=True)
class CampaignPlan:
    """The join of a matrix against a store: what runs, what's cached.

    A stored record that fails its check (:meth:`ResultStore.load`) is
    neither cached nor pending but ``corrupt``: a resume refuses to run
    until its file is deleted.
    """

    matrix: ScenarioMatrix
    pending: tuple[CellJob, ...]
    completed: tuple[tuple[str, int, str], ...]  # (cell name, seed, key)
    corrupt: tuple[tuple[str, int, str, str], ...]  # (cell name, seed, key, error)

    @property
    def total_runs(self) -> int:
        """All (cell, seed) runs the campaign describes."""
        return len(self.pending) + len(self.completed) + len(self.corrupt)


@dataclass
class CampaignRunSummary:
    """What one :func:`run_campaign` invocation did."""

    campaign: str
    total_runs: int
    executed: int
    skipped: int
    store_root: str
    diverged: list[tuple[str, int]] = field(default_factory=list)
    quarantined: list[tuple[str, int]] = field(default_factory=list)

    def describe(self) -> str:
        """One-line progress summary."""
        line = (
            f"campaign {self.campaign!r}: {self.executed} run(s) executed, "
            f"{self.skipped} cached, {self.total_runs} total"
        )
        if self.diverged:
            cells = ", ".join(f"{name}/seed{seed}" for name, seed in self.diverged)
            line += f"; non-finite results: {cells}"
        if self.quarantined:
            cells = ", ".join(
                f"{name}/seed{seed}" for name, seed in self.quarantined
            )
            line += f"; quarantined: {cells}"
        return line


def _vn_payload(callback: VNRatioCallback | None) -> dict | None:
    """Summary of the run's VN trajectory, None when unavailable."""
    if callback is None:
        return None
    try:
        trajectory = callback.trajectory
        if not trajectory.steps:
            return None
        return {
            "k_f": trajectory.k_f,
            "median_clean": trajectory.median_ratio("clean"),
            "median_submitted": trajectory.median_ratio("submitted"),
            "clean_violation_fraction": trajectory.clean_violation_fraction,
            "submitted_violation_fraction": trajectory.submitted_violation_fraction,
        }
    except ReproError:
        return None


def _base_record(
    job: CellJob, history, final_parameters, privacy, bytes_on_wire=None
) -> dict:
    accuracies = history.accuracies
    return {
        "schema": STORE_SCHEMA,
        "key": job.key,
        "name": job.name,
        "seed": int(job.seed),
        "mode": job.mode,
        "config": job.config.to_dict(),
        "history": history.to_dict(),
        "final_loss": float(history.final_loss) if len(history) else None,
        "final_accuracy": float(accuracies[-1]) if len(accuracies) else None,
        "min_loss": float(history.min_loss) if len(history) else None,
        "final_parameters": np.asarray(final_parameters, dtype=np.float64).tolist(),
        "privacy": privacy.to_dict() if privacy is not None else None,
        "bytes_on_wire": int(bytes_on_wire) if bytes_on_wire is not None else None,
        "vn": None,
        "simulation": None,
        "telemetry": job.telemetry,
    }


def execute_cell(job: CellJob) -> dict:
    """Run one (cell, seed) to completion and package its store record.

    Module-level so :func:`repro.pipeline.parallel.map_tasks` can ship
    it to pool workers.  The VN-ratio trajectory is tracked for
    synchronous cells with at least two honest workers (the estimator
    needs a cross-worker sample); the callback only observes the run, so
    attaching it never perturbs the numbers.
    """
    experiment = Experiment.from_config(
        job.config,
        job.model,
        job.train_dataset,
        job.test_dataset,
        seed=job.seed,
        telemetry=job.telemetry,
    )
    if job.mode == "simulate":
        result: SimulationResult = experiment.simulate()
        record = _base_record(
            job,
            result.history,
            result.final_parameters,
            result.privacy,
            bytes_on_wire=result.bytes_on_wire,
        )
        worst_epsilon = None
        if result.per_worker_privacy:
            worst_epsilon = max(
                report.basic.epsilon for report in result.per_worker_privacy.values()
            )
        record["simulation"] = {
            "virtual_time": result.virtual_time,
            "rounds": result.rounds,
            "policy": result.config.get("policy"),
            "policy_stats": result.policy_stats,
            "participation_rates": {
                str(worker): rate for worker, rate in result.participation_rates.items()
            },
            "worst_amplified_epsilon": worst_epsilon,
            "tightest_amplified_epsilon": result.tightest_worker_epsilon,
        }
        return record
    vn_callback = None
    if experiment.num_honest >= 2:
        vn_callback = VNRatioCallback()
        experiment.callbacks.append(vn_callback)
    training = experiment.run()
    record = _base_record(
        job,
        training.history,
        training.final_parameters,
        training.privacy,
        bytes_on_wire=training.bytes_on_wire,
    )
    record["vn"] = _vn_payload(vn_callback)
    return record


def _quarantine_record(job: CellJob, error: BaseException, attempts: int) -> dict:
    """The structured failure record stored for a permanently failing run.

    Shares the store schema and identity fields with healthy records but
    carries ``"quarantined": True`` and no history/parameters — reports
    skip it, resumes treat the key as settled (delete the record file to
    force a re-run).
    """
    return {
        "schema": STORE_SCHEMA,
        "key": job.key,
        "name": job.name,
        "seed": int(job.seed),
        "mode": job.mode,
        "config": job.config.to_dict(),
        "quarantined": True,
        "error": {"type": type(error).__name__, "message": str(error)},
        "attempts": int(attempts),
        "telemetry": job.telemetry,
    }


@dataclass(frozen=True)
class _KeyedExecute:
    """Pairs each result with its job's store key, retrying transients.

    Needed because results may arrive out of submission order; a frozen
    dataclass (not a closure) so pool workers can pickle it.

    Failures are retried up to ``retries`` times with exponential
    backoff; the jitter is drawn from the run's own :class:`SeedTree`
    under the ``"retry"`` path (never wall-clock or the global RNG), so
    a replayed campaign sleeps the exact same schedule.  A run that
    fails every attempt resolves to a quarantine record instead of
    raising, so one bad cell cannot abort the campaign.

    The package's own :class:`ReproError` taxonomy is deterministic
    (bad configs, unknown components): retrying cannot help and
    quarantining would silently bury a usage error, so it propagates —
    as does ``KeyboardInterrupt`` (a genuine kill).  The one exception
    is :class:`DegradedRunError`: a cell whose fault plan leaves no
    honest worker is a *result* of the scenario, quarantined
    immediately without retry.
    """

    execute: Callable[["CellJob"], dict]
    retries: int = 2
    backoff: float = 0.25

    def __call__(self, job: "CellJob") -> tuple[str, dict]:
        attempts = self.retries + 1
        for attempt in range(1, attempts + 1):
            try:
                return job.key, self.execute(job)
            except DegradedRunError as error:
                return job.key, _quarantine_record(job, error, attempt)
            except ReproError:
                raise
            except Exception as error:
                if attempt == attempts:
                    return job.key, _quarantine_record(job, error, attempts)
                jitter = SeedTree(job.seed).generator(
                    "retry", job.key, attempt
                ).random()
                time.sleep(self.backoff * 2 ** (attempt - 1) * (0.5 + jitter))
        raise AssertionError("unreachable")  # pragma: no cover


def plan_campaign(
    matrix: ScenarioMatrix,
    store: ResultStore,
    *,
    smoke: bool = False,
    telemetry: str | None = None,
) -> CampaignPlan:
    """Join the matrix against the store and list the pending runs.

    Every stored record is loaded, and so checked, once: one that fails
    the check is listed as ``corrupt``, not cached.  The shared
    environment (dataset + model) is built only when at least one run
    is actually pending: planning against a warm store — a dry run, a
    report, a no-op resume — builds no dataset.

    ``telemetry`` names a *directory*: each pending run then writes a
    JSONL trace at ``<telemetry>/<key>.jsonl`` (the store key is the
    natural per-run name — content-addressed, collision-free, and the
    record stamps the path so reports can link result to trace).
    """
    if smoke:
        matrix = matrix.smoke()
    missing: list[tuple[CampaignCell, int, str]] = []
    completed: list[tuple[str, int, str]] = []
    corrupt: list[tuple[str, int, str, str]] = []
    for cell in matrix.cells:
        for seed in cell.config.seeds:
            key = job_key(cell, seed, matrix)
            if not store.has(key):
                missing.append((cell, int(seed), key))
                continue
            try:
                store.load(key)
            except ConfigurationError as error:
                corrupt.append((cell.name, int(seed), key, str(error)))
            else:
                completed.append((cell.name, int(seed), key))
    pending: list[CellJob] = []
    if missing:
        model, train_set, test_set = build_environment(
            matrix.model_spec, matrix.data_seed
        )
        pending = [
            CellJob(
                key=key,
                name=cell.name,
                seed=seed,
                mode=cell.mode,
                config=cell.config,
                model=model,
                train_dataset=train_set,
                test_dataset=test_set,
                telemetry=(
                    str(Path(telemetry) / f"{key}.jsonl")
                    if telemetry is not None
                    else None
                ),
            )
            for cell, seed, key in missing
        ]
    return CampaignPlan(
        matrix=matrix,
        pending=tuple(pending),
        completed=tuple(completed),
        corrupt=tuple(corrupt),
    )


def job_key(cell: CampaignCell, seed: int, matrix: ScenarioMatrix) -> str:
    """The store key of one (cell, seed) run under the matrix environment."""
    return cell_key(
        cell.config,
        seed,
        mode=cell.mode,
        data_seed=matrix.data_seed,
        model_spec=matrix.model_spec,
    )


def run_campaign(
    matrix: ScenarioMatrix,
    store: ResultStore,
    *,
    max_workers: int | None = None,
    chunksize: int | None = None,
    smoke: bool = False,
    verbose: bool = False,
    execute: Callable[[CellJob], dict] | None = None,
    telemetry: str | None = None,
    retries: int = 2,
    retry_backoff: float = 0.25,
) -> CampaignRunSummary:
    """Execute every pending run of the campaign, persisting as it goes.

    Pending runs are sharded over ``max_workers`` processes (serial when
    ``None``/1); each finished record is written to the store
    immediately, in submission order, so an interrupted campaign resumes
    from exactly the completed prefix plus whatever later runs already
    landed.  ``execute`` is injectable for testing (it must stay a
    picklable module-level callable when ``max_workers`` > 1).

    ``chunksize`` batches (cell, seed) runs per pool claim: ``None``
    (the default) applies the executor's task-count heuristic
    (:func:`repro.pipeline.parallel.default_chunksize`), which stops
    swarms of tiny smoke cells from paying one IPC round-trip each.
    Records still persist as their chunk completes, so a kill loses at
    most the in-flight chunks; pass ``chunksize=1`` to restore
    per-run persistence granularity for long cells.

    ``telemetry`` names a trace directory (see :func:`plan_campaign`):
    every executed run writes ``<telemetry>/<key>.jsonl`` and its store
    record carries the path under the ``"telemetry"`` key.

    ``retries`` transient-failure re-attempts per run (exponential
    backoff starting at ``retry_backoff`` seconds, jitter drawn from the
    run's seed — deterministic, never wall-clock).  A run failing every
    attempt is *quarantined*: a structured failure record is stored
    under its key (so resumes skip it) and the campaign continues.
    """
    if execute is None:
        execute = execute_cell  # resolved late so tests can monkeypatch it
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if retry_backoff < 0:
        raise ConfigurationError(
            f"retry_backoff must be >= 0, got {retry_backoff}"
        )
    plan = plan_campaign(matrix, store, smoke=smoke, telemetry=telemetry)
    if plan.corrupt:  # never re-run a damaged record silently
        raise ConfigurationError(plan.corrupt[0][3])
    if verbose:
        print(
            f"campaign {matrix.name!r}: {len(plan.pending)} pending run(s), "
            f"{len(plan.completed)} cached, store {store.root}"
        )
        for job in plan.pending:
            print(f"  running {job.name} (seed {job.seed}, {job.mode})")
    summary = CampaignRunSummary(
        campaign=matrix.name,
        total_runs=plan.total_runs,
        executed=0,
        skipped=len(plan.completed),
        store_root=str(store.root),
    )
    jobs_by_key = {job.key: job for job in plan.pending}
    # Unordered: records are persisted as their pool chunk completes,
    # so one slow cell never holds finished results hostage — a kill
    # loses at most the in-flight chunks (exactly the in-flight *runs*
    # when chunksize=1; the heuristic default trades a coarser crash
    # granularity for amortised IPC on swarms of tiny cells).
    for key, record in map_tasks(
        _KeyedExecute(execute, retries=retries, backoff=retry_backoff),
        plan.pending,
        max_workers=max_workers,
        chunksize=chunksize,
        ordered=False,
    ):
        store.save(key, record)
        summary.executed += 1
        job = jobs_by_key[key]
        if record.get("quarantined"):
            summary.quarantined.append((job.name, job.seed))
            continue
        final_loss = record.get("final_loss")
        if final_loss is not None and not np.isfinite(final_loss):
            summary.diverged.append((job.name, job.seed))
    for name, seed, key in plan.completed:
        record = store.load(key)
        if record.get("quarantined"):
            summary.quarantined.append((name, seed))
            continue
        final_loss = record.get("final_loss")
        if final_loss is not None and not np.isfinite(final_loss):
            summary.diverged.append((name, seed))
    # Out-of-order completion must not leak into the summary: report
    # divergences in plan order regardless of which worker finished when.
    plan_order = {(job.name, job.seed): index for index, job in enumerate(plan.pending)}
    for index, (name, seed, _) in enumerate(plan.completed):
        plan_order[(name, seed)] = len(plan.pending) + index
    summary.diverged.sort(key=plan_order.__getitem__)
    summary.quarantined.sort(key=plan_order.__getitem__)
    return summary
