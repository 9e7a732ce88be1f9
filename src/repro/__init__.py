"""repro — reproduction of "Differential Privacy and Byzantine Resilience
in SGD: Do They Add Up?" (Guerraoui, Gupta, Pinot, Rouault, Stephan;
PODC 2021).

The package is organised as:

* :mod:`repro.core` — the paper's contribution: VN-ratio analysis
  (Eq. 2/8), feasibility conditions (Table 1, Propositions 1-3),
  Theorem 1 convergence bounds, trade-off solvers.
* Substrates — :mod:`repro.data`, :mod:`repro.models`,
  :mod:`repro.optim`, :mod:`repro.privacy`, :mod:`repro.gars`,
  :mod:`repro.attacks`, :mod:`repro.distributed`.
* :mod:`repro.pipeline` — the composable experiment API: a unified
  component registry (``build_component``/``register_component``), the
  staged :class:`Experiment` builder with training-loop callbacks
  (``AccuracyCallback``, ``EarlyStopping``, ``VNRatioCallback``, ...),
  and the parallel multi-seed executor behind
  ``run_config(..., max_workers=N)``.
* :mod:`repro.simulation` — the discrete-event asynchronous cluster
  simulator: virtual-clock engine, server policies (sync barrier /
  buffered semi-sync / async staleness-damped), per-worker latency
  models, and privacy-amplified partial participation, driven by
  :meth:`Experiment.simulate` or ``python -m repro simulate``.
* :mod:`repro.experiments` — configs and runners regenerating every
  table and figure; :mod:`repro.analysis` — leakage and variance
  extras; :mod:`repro.metrics` — histories and aggregation.
* :mod:`repro.faults` — the deterministic fault-injection and recovery
  plane: seed-deterministic :class:`FaultPlan` schedules (crash, hang,
  slow, drop, corrupt, rejoin) applied identically by every backend,
  shard respawn with seed-stream fast-forward in the multiprocess
  runtime, atomic training checkpoints with bit-identical resume, and
  campaign retry-with-backoff + quarantine
  (``Experiment(faults=...)``, ``repro run --faults``).
* :mod:`repro.telemetry` — the unified observability plane: structured
  tracing (schema-versioned JSONL), counters and gauges, and
  per-round phase profiling across the engine, the multiprocess
  runtime, the simulator, and campaigns.  Off by default and free when
  off; bit-identical when on (``Experiment(telemetry=...)``,
  ``--telemetry`` on the CLI, ``repro trace summarize`` to inspect).

Quickstart
----------
>>> from repro import phishing_environment, train
>>> model, train_set, test_set = phishing_environment()
>>> result = train(
...     model=model, train_dataset=train_set, test_dataset=test_set,
...     num_steps=100, gar="mda", attack="little", epsilon=0.2, seed=1,
... )  # doctest: +SKIP

The same run, spec-driven through the pipeline API:

>>> from repro import Experiment
>>> result = Experiment(
...     model=model, train_dataset=train_set, test_dataset=test_set,
...     num_steps=100, gar={"name": "mda"}, attack={"name": "little"},
...     epsilon=0.2, seed=1,
... ).run()  # doctest: +SKIP
"""

from repro.attacks import available_attacks, get_attack
from repro.campaign import (
    CampaignCell,
    ResultStore,
    ScenarioMatrix,
    cell_key,
    render_campaign_report,
    run_campaign,
)
from repro.core import (
    certify_vn_condition,
    empirical_vn_ratio,
    master_condition_can_hold,
    min_batch_size_for_gar,
    theorem1_bounds,
    theorem1_rate,
)
from repro.data import Dataset, make_phishing_dataset, train_test_split
from repro.distributed import Cluster, ParameterServer, RoundEngine, TrainingResult, train
from repro.exceptions import (
    AggregationError,
    ConfigurationError,
    DataError,
    DegradedRunError,
    PrivacyError,
    ReproError,
    ResilienceError,
    TrainingError,
)
from repro.experiments import ExperimentConfig, phishing_environment, run_config, run_grid
from repro.faults import (
    FaultEvent,
    FaultPlan,
    build_fault_plan,
    load_checkpoint,
    sample_fault_plan,
    save_checkpoint,
)
from repro.gars import available_gars, get_gar
from repro.models import LogisticRegressionModel, MeanEstimationModel
from repro.pipeline import (
    AccuracyCallback,
    Callback,
    CallbackList,
    EarlyStopping,
    Experiment,
    StepResultRecorder,
    TrainingJob,
    TrainingLoop,
    VNRatioCallback,
    available_components,
    build_component,
    component_families,
    register_component,
    run_jobs,
)
from repro.privacy import GaussianMechanism, LaplaceMechanism
from repro.rng import SeedTree
from repro.simulation import (
    AsyncStalenessPolicy,
    BufferedSemiSyncPolicy,
    ClusterSimulator,
    ConstantLatency,
    LognormalLatency,
    SimulationResult,
    StragglerLatency,
    SyncPolicy,
)
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    TraceError,
    read_trace,
    summarize_trace,
    validate_events,
)

__version__ = "1.9.0"

__all__ = [
    "AccuracyCallback",
    "AggregationError",
    "AsyncStalenessPolicy",
    "BufferedSemiSyncPolicy",
    "Callback",
    "CallbackList",
    "CampaignCell",
    "Cluster",
    "ClusterSimulator",
    "ConfigurationError",
    "ConstantLatency",
    "DataError",
    "Dataset",
    "DegradedRunError",
    "EarlyStopping",
    "Experiment",
    "ExperimentConfig",
    "FaultEvent",
    "FaultPlan",
    "GaussianMechanism",
    "JsonlSink",
    "LaplaceMechanism",
    "LogisticRegressionModel",
    "LognormalLatency",
    "MeanEstimationModel",
    "MemorySink",
    "ParameterServer",
    "PrivacyError",
    "ReproError",
    "ResilienceError",
    "ResultStore",
    "RoundEngine",
    "ScenarioMatrix",
    "SeedTree",
    "SimulationResult",
    "StepResultRecorder",
    "StragglerLatency",
    "SyncPolicy",
    "Telemetry",
    "TraceError",
    "TrainingError",
    "TrainingJob",
    "TrainingLoop",
    "TrainingResult",
    "VNRatioCallback",
    "available_attacks",
    "available_components",
    "available_gars",
    "build_component",
    "build_fault_plan",
    "cell_key",
    "certify_vn_condition",
    "component_families",
    "empirical_vn_ratio",
    "get_attack",
    "get_gar",
    "load_checkpoint",
    "make_phishing_dataset",
    "master_condition_can_hold",
    "min_batch_size_for_gar",
    "phishing_environment",
    "read_trace",
    "register_component",
    "render_campaign_report",
    "run_campaign",
    "run_config",
    "run_grid",
    "run_jobs",
    "sample_fault_plan",
    "save_checkpoint",
    "summarize_trace",
    "theorem1_bounds",
    "theorem1_rate",
    "train",
    "train_test_split",
    "validate_events",
    "__version__",
]
