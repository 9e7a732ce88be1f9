"""Experiment configuration.

An :class:`ExperimentConfig` captures one cell of the paper's
experimental grid — the training hyperparameters, the GAR, the attack,
the DP budget — plus the seed list over which it is repeated (the paper
uses seeds 1..5).  Defaults reproduce Section 5.1's setup.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

from repro.exceptions import ConfigurationError

__all__ = ["ExperimentConfig", "PAPER_SEEDS"]

#: The paper's "specified seeds (in 1 to 5)".
PAPER_SEEDS: tuple[int, ...] = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experimental cell, repeated over ``seeds``."""

    name: str
    num_steps: int = 1000
    n: int = 11
    f: int = 5
    num_byzantine: int | None = None
    gar: str = "mda"
    attack: str | None = None
    attack_kwargs: tuple[tuple[str, object], ...] = ()
    batch_size: int = 50
    g_max: float | None = 1e-2
    epsilon: float | None = None
    delta: float = 1e-6
    noise_kind: str = "gaussian"
    learning_rate: float = 2.0
    momentum: float = 0.99
    momentum_at: str = "worker"
    clip_mode: str = "batch"
    drop_probability: float = 0.0
    eval_every: int = 50
    seeds: tuple[int, ...] = PAPER_SEEDS
    # Event-driven simulation knobs (consumed by ``python -m repro
    # simulate`` / :meth:`Experiment.simulate`; the synchronous train
    # path ignores them).  The defaults replay the paper's protocol.
    policy: str = "sync"
    policy_kwargs: tuple[tuple[str, object], ...] = ()
    latency: str | None = None
    latency_kwargs: tuple[tuple[str, object], ...] = ()
    participation_rate: float = 1.0
    participation_kind: str = "poisson"
    # Wire-compression codec (a semantic knob: lossy codecs change what
    # the server aggregates, so — unlike the backend fields below — it
    # IS part of the campaign cell key).
    codec: str | None = None
    codec_kwargs: tuple[tuple[str, object], ...] = ()
    # Execution backend knobs (where the rounds run, not what they
    # compute: the multiprocess backend is bit-identical to in-process,
    # so these fields are excluded from campaign cell keys).
    backend: str = "inprocess"
    num_shards: int | None = None
    round_timeout: float = 30.0
    # Fault-injection plan: a model name ("random") or a full plan dict
    # ({"events": [...], "num_shards": k}).  A semantic knob when set —
    # faulty rounds change what the server aggregates — so it IS part
    # of the campaign cell key (when set; absent/None keeps old keys).
    faults: str | dict | None = None
    faults_kwargs: tuple[tuple[str, object], ...] = ()
    # Checkpointing is run infrastructure (where snapshots land, not
    # what the run computes): excluded from campaign cell keys.
    checkpoint: str | None = None
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError("config field 'name' must be a non-empty string")
        self._check_numeric_fields()
        if not self.seeds:
            raise ConfigurationError("config needs at least one seed")
        if self.num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ConfigurationError(
                f"participation_rate must be in (0, 1], got {self.participation_rate}"
            )
        if self.backend not in ("inprocess", "multiprocess"):
            raise ConfigurationError(
                f"backend must be 'inprocess' or 'multiprocess', got {self.backend!r}"
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.round_timeout <= 0:
            raise ConfigurationError(
                f"round_timeout must be > 0, got {self.round_timeout}"
            )
        if self.faults is not None and not isinstance(self.faults, (str, dict)):
            raise ConfigurationError(
                "faults must be a model name or a plan dict, got "
                f"{type(self.faults).__name__}"
            )
        if self.faults is None and self.faults_kwargs:
            raise ConfigurationError("faults_kwargs require faults")
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.checkpoint is not None and self.backend != "inprocess":
            raise ConfigurationError(
                "checkpoint requires the inprocess backend"
            )

    def _check_numeric_fields(self) -> None:
        """Every ``int`` field holds an integer and every ``float`` field
        a finite number (a bool is neither); ``| None`` fields may be None."""
        for field_ in fields(self):
            # Annotations are strings here (``from __future__ import annotations``).
            kind, _, optional = field_.type.partition(" | ")
            value = getattr(self, field_.name)
            if kind not in ("int", "float") or (value is None and optional):
                continue
            if isinstance(value, bool):
                valid = False
            elif kind == "int":
                valid = isinstance(value, Integral)
            else:
                valid = isinstance(value, Real) and math.isfinite(value)
            if not valid:
                expected = "an integer" if kind == "int" else "a finite number"
                raise ConfigurationError(
                    f"config field {field_.name!r} must be {expected}, got {value!r}"
                )

    @property
    def uses_dp(self) -> bool:
        """Whether this cell injects DP noise."""
        return self.epsilon is not None

    @property
    def under_attack(self) -> bool:
        """Whether this cell has active Byzantine workers."""
        if self.attack is None:
            return False
        return self.num_byzantine is None or self.num_byzantine > 0

    def train_kwargs(self, seed: int) -> dict:
        """Keyword arguments for :class:`repro.pipeline.Experiment`.

        (Historically the surface of :func:`repro.distributed.train`;
        the backend keys are an ``Experiment``-only extension and every
        consumer of this method builds an ``Experiment``.)
        """
        return {
            "num_steps": self.num_steps,
            "n": self.n,
            "f": self.f,
            "num_byzantine": self.num_byzantine,
            "gar": self.gar,
            "attack": self.attack,
            "attack_kwargs": dict(self.attack_kwargs) or None,
            "batch_size": self.batch_size,
            "g_max": self.g_max,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "noise_kind": self.noise_kind,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "momentum_at": self.momentum_at,
            "clip_mode": self.clip_mode,
            "drop_probability": self.drop_probability,
            "eval_every": self.eval_every,
            "seed": seed,
            "codec": self.codec,
            "codec_kwargs": dict(self.codec_kwargs) or None,
            "backend": self.backend,
            "num_shards": self.num_shards,
            "round_timeout": self.round_timeout,
            "faults": self.faults,
            "faults_kwargs": dict(self.faults_kwargs) or None,
            "checkpoint": self.checkpoint,
            "checkpoint_every": self.checkpoint_every,
        }

    def simulation_kwargs(self) -> dict:
        """Extra keyword arguments for :class:`repro.pipeline.Experiment`
        that configure the event-driven simulator (policy, latency,
        participation).  Kept out of :meth:`train_kwargs`, whose surface
        is the legacy ``train()`` signature."""
        return {
            "policy": self.policy,
            "policy_kwargs": dict(self.policy_kwargs) or None,
            "latency": self.latency,
            "latency_kwargs": dict(self.latency_kwargs) or None,
            "participation_rate": self.participation_rate,
            "participation_kind": self.participation_kind,
        }

    def with_updates(self, **changes) -> "ExperimentConfig":
        """A copy with some fields replaced (dataclasses.replace wrapper)."""
        payload = asdict(self)
        payload.update(changes)
        return ExperimentConfig(**payload)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (inverse: :meth:`from_dict`)."""
        payload = asdict(self)
        payload["seeds"] = [int(seed) for seed in self.seeds]
        payload["attack_kwargs"] = [list(pair) for pair in self.attack_kwargs]
        payload["policy_kwargs"] = [list(pair) for pair in self.policy_kwargs]
        payload["latency_kwargs"] = [list(pair) for pair in self.latency_kwargs]
        payload["codec_kwargs"] = [list(pair) for pair in self.codec_kwargs]
        payload["faults_kwargs"] = [list(pair) for pair in self.faults_kwargs]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output or hand-written JSON.

        ``attack_kwargs`` may be a mapping (the natural JSON form) or a
        list of ``[key, value]`` pairs; ``seeds`` any integer sequence.
        """
        data = dict(payload)
        unknown = set(data) - {field_.name for field_ in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown config fields: {', '.join(sorted(unknown))}"
            )
        if "name" not in data:
            raise ConfigurationError("config field 'name' is required")
        if "seeds" in data:
            data["seeds"] = tuple(int(seed) for seed in data["seeds"])
        for kwargs_field in (
            "attack_kwargs",
            "policy_kwargs",
            "latency_kwargs",
            "codec_kwargs",
            "faults_kwargs",
        ):
            if kwargs_field not in data:
                continue
            kwargs = data[kwargs_field]
            if kwargs is None:  # JSON null means "no kwargs"
                data[kwargs_field] = ()
            elif isinstance(kwargs, dict):
                data[kwargs_field] = tuple(kwargs.items())
            else:
                data[kwargs_field] = tuple((key, value) for key, value in kwargs)
        return cls(**data)

    def describe(self) -> str:
        """Compact human-readable summary."""
        dp = f"eps={self.epsilon}" if self.uses_dp else "no-DP"
        attack = self.attack if self.attack is not None else "no-attack"
        extras = ""
        if self.policy != "sync" or self.latency is not None or self.participation_rate < 1.0:
            extras = (
                f", policy={self.policy}, latency={self.latency or 'zero'}, "
                f"q={self.participation_rate:g}"
            )
        if self.backend != "inprocess":
            extras += f", backend={self.backend}"
        if self.codec is not None:
            extras += f", codec={self.codec}"
        if self.faults is not None:
            faults = self.faults if isinstance(self.faults, str) else "schedule"
            extras += f", faults={faults}"
        return (
            f"{self.name}: {self.gar} (n={self.n}, f={self.f}), {attack}, "
            f"b={self.batch_size}, {dp}, T={self.num_steps}, "
            f"{len(self.seeds)} seeds{extras}"
        )
