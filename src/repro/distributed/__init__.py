"""Distributed substrate: the simulated parameter-server deployment."""

from repro.distributed.cluster import Cluster, StepResult
from repro.distributed.engine import RoundEngine
from repro.distributed.network import LossyNetwork, PerfectNetwork
from repro.distributed.runtime import MultiprocessCluster, WirePlane, WorkerShardSpec
from repro.distributed.server import ParameterServer
from repro.distributed.trainer import PrivacyReport, TrainingResult, build_mechanism, train
from repro.distributed.worker import HonestWorker, compute_cohort

__all__ = [
    "Cluster",
    "HonestWorker",
    "LossyNetwork",
    "MultiprocessCluster",
    "ParameterServer",
    "PerfectNetwork",
    "PrivacyReport",
    "RoundEngine",
    "StepResult",
    "TrainingResult",
    "WirePlane",
    "WorkerShardSpec",
    "build_mechanism",
    "compute_cohort",
    "train",
]
