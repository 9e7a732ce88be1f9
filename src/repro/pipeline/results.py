"""Training results and privacy reporting.

These types used to live inside :mod:`repro.distributed.trainer`; they
are defined here (a leaf module with no distributed/pipeline imports)
so both :func:`repro.distributed.trainer.train` and the
:class:`repro.pipeline.builder.Experiment` builder can share them
without circular imports.  The trainer re-exports them, so
``from repro.distributed.trainer import TrainingResult`` keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics.history import TrainingHistory
from repro.privacy.accountants import (
    AdvancedCompositionAccountant,
    BasicCompositionAccountant,
    PrivacySpend,
    RDPAccountant,
)
from repro.privacy.amplification import amplify_by_rate
from repro.privacy.mechanisms import GaussianMechanism, NoiseMechanism
from repro.typing import Vector

__all__ = [
    "PrivacyReport",
    "TrainingResult",
    "privacy_report",
    "amplified_privacy_report",
]


@dataclass(frozen=True)
class PrivacyReport:
    """End-to-end privacy accounting for one training run.

    ``sampling_rate`` is set (to the subsampling probability ``q``) when
    the per-step budget has been amplified by partial participation /
    subsampling; it stays ``None`` for the classical full-participation
    accounting.
    """

    per_step: PrivacySpend
    noise_sigma: float
    basic: PrivacySpend
    advanced: PrivacySpend
    rdp: PrivacySpend | None
    sampling_rate: float | None = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"per-step ({self.per_step.epsilon:.3g}, {self.per_step.delta:.3g})-DP",
            f"basic total ({self.basic.epsilon:.3g}, {self.basic.delta:.3g})",
            f"advanced total ({self.advanced.epsilon:.3g}, {self.advanced.delta:.3g})",
        ]
        if self.rdp is not None:
            parts.append(f"RDP total ({self.rdp.epsilon:.3g}, {self.rdp.delta:.3g})")
        if self.sampling_rate is not None:
            parts.append(f"amplified at rate q={self.sampling_rate:.3g}")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON-serialisable summary (the one shape every store uses)."""
        return {
            "per_step": list(self.per_step),
            "noise_sigma": self.noise_sigma,
            "basic": list(self.basic),
            "advanced": list(self.advanced),
            "rdp": list(self.rdp) if self.rdp is not None else None,
            "sampling_rate": self.sampling_rate,
        }


@dataclass
class TrainingResult:
    """Everything one training run produces.

    ``departed`` is multiprocess-only degradation evidence:
    ``shard_id -> reason`` for every shard that crashed, hung, or left
    during the run (``None`` for in-process runs and clean ones).  The
    CLI surfaces it in the run summary so a degraded run is legible
    without opening the trace.

    ``bytes_on_wire`` is the run's total exact encoded wire traffic
    (honest + Byzantine submissions) when a codec was configured;
    ``None`` on raw-wire runs.
    """

    history: TrainingHistory
    final_parameters: Vector = field(repr=False)
    privacy: PrivacyReport | None
    config: dict = field(repr=False)
    departed: dict | None = None
    bytes_on_wire: int | None = None

    @property
    def final_loss(self) -> float:
        """Training loss at the last step."""
        return self.history.final_loss

    @property
    def final_accuracy(self) -> float:
        """Test accuracy at the last evaluation (if any were recorded)."""
        return self.history.final_accuracy


def privacy_report(
    mechanism: NoiseMechanism | None,
    epsilon: float | None,
    delta: float,
    num_steps: int,
) -> PrivacyReport | None:
    """Compose the per-step budget over ``num_steps`` under every accountant.

    Returns ``None`` when DP is off.  ``num_steps`` is the *configured*
    horizon; an early-stopped run spends at most this much.
    """
    if mechanism is None or epsilon is None:
        return None
    per_step = PrivacySpend(epsilon=mechanism.epsilon, delta=mechanism.delta)
    basic = BasicCompositionAccountant().compose(
        per_step.epsilon, per_step.delta, num_steps
    )
    advanced = AdvancedCompositionAccountant().compose(
        per_step.epsilon, per_step.delta, num_steps
    )
    rdp: PrivacySpend | None = None
    if isinstance(mechanism, GaussianMechanism):
        accountant = RDPAccountant()
        accountant.step_gaussian(mechanism.noise_multiplier, num_steps)
        rdp = accountant.get_privacy_spent(delta)
        sigma = mechanism.sigma
    else:
        sigma = float(np.sqrt(mechanism.per_coordinate_variance))
    return PrivacyReport(
        per_step=per_step, noise_sigma=sigma, basic=basic, advanced=advanced, rdp=rdp
    )


def amplified_privacy_report(
    mechanism: NoiseMechanism | None,
    epsilon: float | None,
    delta: float,
    num_rounds: int,
    sampling_rate: float,
) -> PrivacyReport | None:
    """Accounting for a worker that participates at ``sampling_rate``.

    A worker joining each of ``num_rounds`` rounds independently with
    probability ``q = sampling_rate`` invokes its mechanism on a
    subsampled view of the round stream, so each round costs the
    amplified budget of :func:`repro.privacy.amplification.amplify_by_rate`
    and the total composes over all ``num_rounds`` rounds.  The RDP
    entry is ``None`` — tight subsampled-RDP bounds are out of scope,
    and reporting the unamplified moments bound here would *overstate*
    tightness relative to the amplified per-step budget.

    ``sampling_rate == 0`` (the worker never participated, so nothing
    was released) yields an all-zero report.  Returns ``None`` when DP
    is off.
    """
    if mechanism is None or epsilon is None:
        return None
    if isinstance(mechanism, GaussianMechanism):
        sigma = mechanism.sigma
    else:
        sigma = float(np.sqrt(mechanism.per_coordinate_variance))
    if sampling_rate == 0.0:
        nothing = PrivacySpend(epsilon=0.0, delta=0.0)
        return PrivacyReport(
            per_step=nothing,
            noise_sigma=sigma,
            basic=nothing,
            advanced=nothing,
            rdp=None,
            sampling_rate=0.0,
        )
    per_step = amplify_by_rate(mechanism.epsilon, mechanism.delta, sampling_rate)
    basic = BasicCompositionAccountant().compose(
        per_step.epsilon, per_step.delta, num_rounds
    )
    advanced = AdvancedCompositionAccountant().compose(
        per_step.epsilon, per_step.delta, num_rounds
    )
    return PrivacyReport(
        per_step=per_step,
        noise_sigma=sigma,
        basic=basic,
        advanced=advanced,
        rdp=None,
        sampling_rate=float(sampling_rate),
    )
