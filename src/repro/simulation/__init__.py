"""Discrete-event asynchronous cluster simulation.

The paper's system model (Section 2.1) is *sequential synchronous*:
training proceeds in lockstep rounds, and the parameter server treats
any non-received gradient as zero.  ``repro.distributed.cluster``
hard-codes exactly that.  This package relaxes the assumption without
touching the rest of the stack: a deterministic discrete-event engine
(:mod:`~repro.simulation.engine`) runs the same workers, adversary,
network, GARs and optimizer under a virtual clock, with three new
pluggable axes:

* **latency models** (:mod:`~repro.simulation.latency`, registry family
  ``latency``) — constant, lognormal, heavy-tail straggler;
* **server policies** (:mod:`~repro.simulation.policies`, registry
  family ``policy``) — the paper's synchronous barrier (replaying the
  sequential protocol bit-identically at zero latency), a K-of-n
  buffered semi-sync barrier, and a fully asynchronous
  staleness-damped rule;
* **partial participation** (:mod:`~repro.simulation.participation`) —
  per-round Poisson/uniform client sampling whose inclusion
  probabilities feed privacy amplification by subsampling
  (:func:`repro.privacy.amplification.amplify_by_rate`), the Section 7
  "future direction" the accountants can now report on.

Entry points: :meth:`repro.pipeline.builder.Experiment.simulate` (or
``build_simulation`` for the bare engine) and the
``python -m repro simulate`` CLI subcommand.  The simulator steps one
server update per :meth:`~repro.simulation.engine.ClusterSimulator.step`,
so :class:`repro.pipeline.loop.TrainingLoop` drives it like every other
backend.
"""

from repro.simulation.engine import ClusterSimulator, SimStepResult
from repro.simulation.events import (
    Event,
    EventQueue,
    GradientArrival,
    ModelBroadcast,
    WorkerWake,
)
from repro.simulation.latency import (
    ConstantLatency,
    LatencyModel,
    LognormalLatency,
    StragglerLatency,
)
from repro.simulation.participation import (
    PARTICIPATION_KINDS,
    FullParticipation,
    ParticipationSampler,
    PoissonParticipation,
    UniformParticipation,
    make_participation,
)
from repro.simulation.policies import (
    STALENESS_DAMPINGS,
    Arrival,
    AsyncStalenessPolicy,
    BufferedSemiSyncPolicy,
    RoundCompletion,
    ServerPolicy,
    SyncPolicy,
)
from repro.simulation.run import SimulationResult

__all__ = [
    "Arrival",
    "AsyncStalenessPolicy",
    "BufferedSemiSyncPolicy",
    "ClusterSimulator",
    "ConstantLatency",
    "Event",
    "EventQueue",
    "FullParticipation",
    "GradientArrival",
    "LatencyModel",
    "LognormalLatency",
    "ModelBroadcast",
    "PARTICIPATION_KINDS",
    "ParticipationSampler",
    "PoissonParticipation",
    "RoundCompletion",
    "STALENESS_DAMPINGS",
    "ServerPolicy",
    "SimStepResult",
    "SimulationResult",
    "StragglerLatency",
    "SyncPolicy",
    "UniformParticipation",
    "WorkerWake",
    "make_participation",
]
