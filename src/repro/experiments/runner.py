"""Experiment runner: config -> multi-seed results.

:func:`phishing_environment` builds the paper's task (synthetic
phishing stand-in + logistic regression with MSE loss);
:func:`run_config` repeats one cell over its seeds and aggregates the
curves; :func:`run_grid` handles a list of cells.  Both accept
``max_workers`` to fan the per-seed runs out over a
:mod:`multiprocessing` pool (see :mod:`repro.pipeline.parallel`);
results are bit-identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.data.datasets import Dataset, train_test_split
from repro.data.phishing import PHISHING_TRAIN_SIZE, make_phishing_dataset
from repro.distributed.trainer import PrivacyReport, TrainingResult
from repro.experiments.config import ExperimentConfig, spec_name
from repro.metrics.aggregate import SeriesStats, aggregate_accuracy, aggregate_losses
from repro.metrics.history import TrainingHistory
from repro.models.base import Model
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.parallel import TrainingJob, run_jobs
from repro.rng import generator_from_seed

__all__ = [
    "RunOutcome",
    "build_environment",
    "phishing_environment",
    "run_config",
    "run_grid",
    "telemetry_path_for",
]


@dataclass
class RunOutcome:
    """Aggregated results of one config across its seeds."""

    config: ExperimentConfig
    histories: list[TrainingHistory] = field(repr=False)
    loss_stats: SeriesStats = field(repr=False)
    accuracy_stats: SeriesStats | None = field(repr=False)
    privacy: PrivacyReport | None
    #: Multiprocess-backend degradation evidence: ``(seed, departed)``
    #: for every seed whose run lost shards (empty for clean runs and
    #: the in-process backend).  The CLI prints these in the summary.
    departures: list[tuple[int, dict]] = field(default_factory=list)

    @property
    def final_loss_mean(self) -> float:
        """Mean final training loss across seeds."""
        return self.loss_stats.final_mean

    @property
    def min_loss_mean(self) -> float:
        """Mean of per-seed minimum losses."""
        return float(sum(h.min_loss for h in self.histories) / len(self.histories))

    @property
    def final_accuracy_mean(self) -> float | None:
        """Mean final test accuracy across seeds (None if not measured)."""
        if self.accuracy_stats is None:
            return None
        return self.accuracy_stats.final_mean

    def summary_row(self) -> dict:
        """Flat dict for table printing / JSON export."""
        return {
            "name": self.config.name,
            "gar": spec_name(self.config.gar),
            "attack": spec_name(self.config.attack) or "none",
            "batch_size": self.config.batch_size,
            "epsilon": self.config.epsilon,
            "final_loss": self.final_loss_mean,
            "min_loss": self.min_loss_mean,
            "final_accuracy": self.final_accuracy_mean,
        }


def phishing_environment(
    data_seed: int = 0,
) -> tuple[LogisticRegressionModel, Dataset, Dataset]:
    """The paper's task: phishing (synthetic stand-in), 8400/2655 split,
    logistic regression with MSE loss (d = 69).

    ``data_seed`` fixes the dataset; the paper varies only the training
    seeds, keeping the data fixed, so all experiment cells should share
    one ``data_seed``.
    """
    dataset = make_phishing_dataset(seed=data_seed)
    train_set, test_set = train_test_split(
        dataset, PHISHING_TRAIN_SIZE, generator_from_seed(data_seed + 1)
    )
    model = LogisticRegressionModel(num_features=dataset.num_features, loss_kind="mse")
    return model, train_set, test_set


def build_environment(
    model_spec: dict | str | None = None, data_seed: int = 0
) -> tuple[Model, Dataset, Dataset]:
    """The shared task environment for a config grid or campaign.

    The phishing dataset/split at ``data_seed``, with the model either
    the paper's logistic regression or, when ``model_spec`` is given, a
    registry build of that spec (``num_features`` injected when the
    factory accepts it).
    """
    model, train_set, test_set = phishing_environment(data_seed)
    if model_spec is not None:
        import inspect

        from repro.pipeline.registry import REGISTRY, ComponentRegistry

        factory = REGISTRY.get("model", ComponentRegistry.parse_spec(model_spec)[0])
        context = {}
        if "num_features" in inspect.signature(factory).parameters:
            context["num_features"] = train_set.num_features
        model = REGISTRY.build("model", model_spec, **context)
    return model, train_set, test_set


def telemetry_path_for(
    base: str | Path, *, name: str | None = None, seed: int | None = None
) -> str:
    """Derive a per-run trace path from a requested base path.

    Each run owns exactly one JSONL trace file, so a multi-config or
    multi-seed invocation cannot write every run to the same ``base``.
    ``name`` (the config's) and ``seed`` are appended as ``-{name}`` /
    ``-s{seed}`` suffixes before the extension; passing neither returns
    ``base`` unchanged (the single-run case keeps the exact path the
    user asked for).
    """
    base = Path(base)
    suffix = base.suffix or ".jsonl"
    stem = base.name[: -len(base.suffix)] if base.suffix else base.name
    if name is not None:
        stem = f"{stem}-{name}"
    if seed is not None:
        stem = f"{stem}-s{seed}"
    return str(base.with_name(stem + suffix))


def run_config(
    config: ExperimentConfig,
    model: Model,
    train_dataset: Dataset,
    test_dataset: Dataset | None = None,
    *,
    max_workers: int | None = None,
    telemetry: str | Path | None = None,
) -> RunOutcome:
    """Run one cell over all its seeds and aggregate the curves.

    Each seed's run is built from
    :meth:`ExperimentConfig.experiment_kwargs`, the mapping
    :meth:`repro.pipeline.Experiment.from_config` uses too.
    ``max_workers`` > 1 runs the seeds on a multiprocessing pool;
    histories are bit-identical to the serial default.

    ``telemetry`` is a trace-path request: each seed's run writes one
    JSONL trace, at ``telemetry`` itself for a single-seed cell and at
    :func:`telemetry_path_for`'s ``-s{seed}`` derivation otherwise.
    The path rides inside the job's ``train_kwargs`` (a plain string,
    so jobs stay picklable) and never enters the config's identity.
    """
    multi_seed = len(config.seeds) > 1
    jobs = []
    for seed in config.seeds:
        kwargs = config.experiment_kwargs(seed)
        if telemetry is not None:
            kwargs["telemetry"] = telemetry_path_for(
                telemetry, seed=seed if multi_seed else None
            )
        jobs.append(
            TrainingJob(
                model=model,
                train_dataset=train_dataset,
                test_dataset=test_dataset,
                train_kwargs=kwargs,
            )
        )
    results: list[TrainingResult] = run_jobs(jobs, max_workers=max_workers)
    histories = [result.history for result in results]
    loss_stats = aggregate_losses(histories)
    if test_dataset is not None and len(histories[0].accuracies) > 0:
        accuracy_stats = aggregate_accuracy(histories)
    else:
        accuracy_stats = None
    return RunOutcome(
        config=config,
        histories=histories,
        loss_stats=loss_stats,
        accuracy_stats=accuracy_stats,
        privacy=results[0].privacy,
        departures=[
            (seed, result.departed)
            for seed, result in zip(config.seeds, results)
            if result.departed
        ],
    )


def run_grid(
    configs: list[ExperimentConfig],
    model: Model,
    train_dataset: Dataset,
    test_dataset: Dataset | None = None,
    verbose: bool = False,
    *,
    max_workers: int | None = None,
    telemetry: str | Path | None = None,
) -> dict[str, RunOutcome]:
    """Run several cells; returns ``{config.name: outcome}``.

    ``max_workers`` parallelises each cell's seeds (cells themselves
    run in order, so progress output stays readable).  ``telemetry``
    requests per-run traces: with more than one config each cell's
    trace base gets a ``-{config.name}`` suffix (and each seed its
    ``-s{seed}``, as in :func:`run_config`).
    """
    multi_config = len(configs) > 1
    outcomes: dict[str, RunOutcome] = {}
    for config in configs:
        if config.name in outcomes:
            raise ValueError(f"duplicate config name {config.name!r}")
        if verbose:
            print(f"running {config.describe()}")
        cell_telemetry = telemetry
        if telemetry is not None and multi_config:
            cell_telemetry = telemetry_path_for(telemetry, name=config.name)
        outcomes[config.name] = run_config(
            config,
            model,
            train_dataset,
            test_dataset,
            max_workers=max_workers,
            telemetry=cell_telemetry,
        )
    return outcomes
