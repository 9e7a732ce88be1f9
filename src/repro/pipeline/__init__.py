"""Composable experiment pipeline.

The public experiment API: a unified component registry
(:mod:`repro.pipeline.registry`), a staged :class:`Experiment` builder
(:mod:`repro.pipeline.builder`) with a callback-driven training loop
(:mod:`repro.pipeline.loop`, :mod:`repro.pipeline.callbacks`), and a
parallel multi-seed executor (:mod:`repro.pipeline.parallel`).
:func:`repro.distributed.train` is ``Experiment(**kwargs).run()``.
"""

# Import order matters: results and registry are leaves; loop/builder
# pull in the distributed substrate, whose trainer module imports the
# two leaf modules back (already loaded by then).
from repro.pipeline.results import (
    PrivacyReport,
    TrainingResult,
    amplified_privacy_report,
    privacy_report,
)
from repro.pipeline.registry import (
    REGISTRY,
    ComponentRegistry,
    available_components,
    build_component,
    build_mechanism,
    component_families,
    register_component,
)
from repro.pipeline.callbacks import (
    AccuracyCallback,
    Callback,
    CallbackList,
    EarlyStopping,
    StepResultRecorder,
    VNRatioCallback,
)
from repro.pipeline.loop import LoopState, TrainingLoop
from repro.pipeline.builder import Experiment
from repro.pipeline.parallel import TrainingJob, execute_job, run_jobs

__all__ = [
    "AccuracyCallback",
    "Callback",
    "CallbackList",
    "ComponentRegistry",
    "EarlyStopping",
    "Experiment",
    "LoopState",
    "PrivacyReport",
    "REGISTRY",
    "StepResultRecorder",
    "TrainingJob",
    "TrainingLoop",
    "TrainingResult",
    "VNRatioCallback",
    "amplified_privacy_report",
    "available_components",
    "build_component",
    "build_mechanism",
    "component_families",
    "execute_job",
    "privacy_report",
    "register_component",
    "run_jobs",
]
