"""What a simulated run returns.

:meth:`repro.pipeline.builder.Experiment.simulate` drives the
:class:`~repro.simulation.engine.ClusterSimulator` through the same
:class:`repro.pipeline.loop.TrainingLoop` as every other backend: each
loop step is one server update, its loss is recorded with the same
stacked float pipeline (so sync-policy runs stay bit-identical to the
synchronous cluster), and its virtual wall-clock is stamped into the
history.

:class:`SimulationResult` extends the training result with the
simulation-only outputs: per-worker *amplified* privacy reports (at
each worker's inclusion probability), the realized participation
rates, the policy/engine counters, and the total virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.history import TrainingHistory
from repro.pipeline.results import PrivacyReport
from repro.typing import Vector

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Everything one simulated training run produces."""

    history: TrainingHistory
    final_parameters: Vector = field(repr=False)
    privacy: PrivacyReport | None
    per_worker_privacy: dict[int, PrivacyReport] | None
    participation_rates: dict[int, float] = field(repr=False)
    virtual_time: float = 0.0
    rounds: int = 0
    policy_stats: dict = field(default_factory=dict, repr=False)
    config: dict = field(default_factory=dict, repr=False)
    #: Total exact encoded wire traffic when a codec was configured.
    bytes_on_wire: int | None = None

    @property
    def final_loss(self) -> float:
        """Training loss at the last recorded step."""
        return self.history.final_loss

    @property
    def final_accuracy(self) -> float:
        """Test accuracy at the last evaluation (if any were recorded)."""
        return self.history.final_accuracy

    @property
    def tightest_worker_epsilon(self) -> float | None:
        """Smallest amplified basic-composition epsilon across workers.

        ``None`` when DP is off.  The *largest* such epsilon is the
        honest cohort's worst-case guarantee; the smallest shows the
        best amplification any worker enjoyed.
        """
        if not self.per_worker_privacy:
            return None
        return min(
            report.basic.epsilon for report in self.per_worker_privacy.values()
        )
