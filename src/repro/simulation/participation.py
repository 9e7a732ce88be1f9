"""Partial-participation (client sampling) for barrier rounds.

The paper's protocol has every worker report every round; Section 7
names subsampling amplification as the open direction.  These samplers
implement the standard client-sampling schemes — each round, only a
subset of the honest workers participates, the server zero-fills the
rest (the Section 2.1 convention for non-received gradients), and each
worker's per-round *inclusion probability* feeds
:func:`repro.privacy.amplification.amplify_by_rate` to produce its
amplified privacy report.  Amplification by subsampling holds at the
sampling probability, not at the rate one run happens to realize: a
worker sampled less often than its probability still spent the budget
the probability implies.

Sampling applies only to honest workers: the colluding Byzantine
workers are assumed worst-case always-on.  Each round's draw comes
from a per-round seeded stream, so participation is a pure function of
``(seed, round)`` — independent of event order, like everything else
in the simulator.

Every sampler guarantees at least one participant (an empty Poisson
draw falls back to the lowest-indexed candidate): a round with no
honest gradient would make the omniscient attack's observed cohort
empty and the round's loss measurement undefined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "FullParticipation",
    "PARTICIPATION_KINDS",
    "ParticipationSampler",
    "PoissonParticipation",
    "UniformParticipation",
    "make_participation",
]

#: Participation kinds :func:`make_participation` accepts.
PARTICIPATION_KINDS = ("poisson", "uniform")


class ParticipationSampler(ABC):
    """Chooses the honest workers reporting in one barrier round."""

    #: Human-readable scheme name.
    name: str

    @property
    @abstractmethod
    def rate(self) -> float:
        """Nominal per-round participation probability."""

    @abstractmethod
    def sample(
        self,
        round_index: int,
        candidates: tuple[int, ...],
        rng: np.random.Generator,
    ) -> tuple[int, ...]:
        """The participating subset of ``candidates`` (sorted, non-empty).

        ``rng`` is a fresh per-round stream; implementations must draw
        only from it.
        """

    @abstractmethod
    def inclusion_probabilities(
        self, candidates: tuple[int, ...]
    ) -> dict[int, float]:
        """Each candidate's probability of being in one round's sample."""


class FullParticipation(ParticipationSampler):
    """Everyone, every round — the paper's Section 2.1 protocol."""

    name = "full"

    @property
    def rate(self) -> float:
        return 1.0

    def sample(self, round_index, candidates, rng):
        del round_index, rng
        return tuple(candidates)

    def inclusion_probabilities(self, candidates):
        return dict.fromkeys(candidates, 1.0)

    def __repr__(self) -> str:
        return "FullParticipation()"


def _validate_rate(rate: float) -> float:
    if not 0.0 < rate <= 1.0:
        raise ConfigurationError(
            f"participation rate must be in (0, 1], got {rate}"
        )
    return float(rate)


class PoissonParticipation(ParticipationSampler):
    """Independent Bernoulli(``rate``) inclusion per worker per round.

    This is the sampling scheme the amplification-by-subsampling bound
    is stated for.  The non-empty fallback raises the lowest-indexed
    candidate's inclusion probability to ``rate + (1 - rate)^m`` over
    ``m`` candidates.
    """

    name = "poisson"

    def __init__(self, rate: float):
        self._rate = _validate_rate(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def sample(self, round_index, candidates, rng):
        del round_index
        included = tuple(
            worker for worker in candidates if rng.random() < self._rate
        )
        if not included:
            # Deterministic non-empty fallback (see module docstring).
            return (min(candidates),)
        return included

    def inclusion_probabilities(self, candidates):
        probabilities = dict.fromkeys(candidates, self._rate)
        # The fallback adds the all-excluded draw to the lowest index.
        probabilities[min(candidates)] += (1.0 - self._rate) ** len(candidates)
        return probabilities

    def __repr__(self) -> str:
        return f"PoissonParticipation(rate={self._rate})"


class UniformParticipation(ParticipationSampler):
    """A fixed-size uniform subset: ``max(1, round(rate * len))`` workers."""

    name = "uniform"

    def __init__(self, rate: float):
        self._rate = _validate_rate(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def _count(self, candidates) -> int:
        return min(len(candidates), max(1, int(round(self._rate * len(candidates)))))

    def sample(self, round_index, candidates, rng):
        del round_index
        count = self._count(candidates)
        if count == len(candidates):
            return tuple(candidates)
        chosen = rng.choice(len(candidates), size=count, replace=False)
        return tuple(sorted(candidates[index] for index in chosen))

    def inclusion_probabilities(self, candidates):
        return dict.fromkeys(candidates, self._count(candidates) / len(candidates))

    def __repr__(self) -> str:
        return f"UniformParticipation(rate={self._rate})"


def make_participation(kind: str, rate: float) -> ParticipationSampler:
    """Build a sampler from ``(kind, rate)``; rate 1 is always full."""
    if rate == 1.0:
        return FullParticipation()
    if kind == "poisson":
        return PoissonParticipation(rate)
    if kind == "uniform":
        return UniformParticipation(rate)
    raise ConfigurationError(
        f"participation kind must be one of {PARTICIPATION_KINDS}, got {kind!r}"
    )
