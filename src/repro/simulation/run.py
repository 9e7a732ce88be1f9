"""Driving a simulation: callback loop and result packaging.

:class:`SimulationLoop` is the event-driven twin of
:class:`repro.pipeline.loop.TrainingLoop`: one iteration advances the
simulator to its next server update, records the honest-batch training
loss with the *same* stacked float pipeline (so sync-policy runs remain
bit-identical to the synchronous loop), stamps the update's virtual
wall-clock into the history, and fires every
:class:`repro.pipeline.callbacks.Callback` hook with a virtual-time
:class:`~repro.simulation.engine.SimStepResult`.

:class:`SimulationResult` extends the training result with the
simulation-only outputs: per-worker *amplified* privacy reports (at
each worker's inclusion probability), the realized participation
rates, the policy/engine counters, and the total virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import ConfigurationError
from repro.metrics.history import TrainingHistory
from repro.models.base import Model
from repro.pipeline.callbacks import Callback, CallbackList
from repro.pipeline.loop import LoopState, record_honest_loss
from repro.pipeline.results import PrivacyReport
from repro.simulation.engine import ClusterSimulator
from repro.typing import Vector

__all__ = ["SimulationLoop", "SimulationResult"]


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


class SimulationLoop:
    """Run server updates of a :class:`ClusterSimulator` with callbacks.

    Mirrors :class:`repro.pipeline.loop.TrainingLoop` hook for hook; the
    ``state.cluster`` handed to callbacks is the simulator itself, whose
    read surface is cluster-compatible.  The loss recorded after each
    update covers the honest workers whose gradients fed that update
    (at full participation: the whole cohort, exactly like the
    synchronous loop), evaluated at the pre-update parameters per
    Section 5.1's measurement protocol.
    """

    def __init__(
        self,
        simulator: ClusterSimulator,
        model: Model,
        history: TrainingHistory | None = None,
        callbacks: Iterable[Callback] = (),
    ):
        self._simulator = simulator
        self._model = model
        self._history = history if history is not None else TrainingHistory()
        self._callbacks = (
            callbacks if isinstance(callbacks, CallbackList) else CallbackList(callbacks)
        )

    @property
    def history(self) -> TrainingHistory:
        """The history this loop records into."""
        return self._history

    @property
    def callbacks(self) -> CallbackList:
        """The composed callback list."""
        return self._callbacks

    def run(self, num_steps: int) -> LoopState:
        """Advance through up to ``num_steps`` server updates."""
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        state = LoopState(
            cluster=self._simulator,  # duck-typed: cluster-compatible surface
            model=self._model,
            history=self._history,
            callbacks=self._callbacks,
            num_steps=int(num_steps),
        )
        honest_workers = self._simulator.honest_workers
        callbacks = self._callbacks
        callbacks.on_train_start(state)
        for _ in range(num_steps):
            if callbacks.should_stop(state):
                state.stopped_early = True
                break
            callbacks.on_step_start(state)
            parameters_before = self._simulator.parameters
            result = self._simulator.advance()
            state.last_result = result
            record_honest_loss(
                self._model,
                self._history,
                self._simulator.step_count,
                parameters_before,
                [honest_workers[worker_id] for worker_id in result.participating],
            )
            self._history.record_virtual_time(
                self._simulator.step_count, self._simulator.clock
            )
            callbacks.on_step_end(state, result)
        callbacks.on_train_end(state)
        return state
