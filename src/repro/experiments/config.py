"""Experiment configuration: the one schema of an experimental cell.

An :class:`ExperimentConfig` captures one cell of the paper's
experimental grid — the training hyperparameters, the GAR, the attack,
the DP budget — plus the seed list over which it is repeated (the paper
uses seeds 1..5).  Defaults reproduce Section 5.1's setup.

:func:`check_cell` holds every value check on a cell's settings and
names the field that fails.  ``ExperimentConfig`` calls it after the
shape checks its annotations drive, and
:class:`repro.pipeline.Experiment` calls it on its own keywords, so a
cell is judged the same way from a JSON file and from Python.
:meth:`ExperimentConfig.experiment_kwargs` is the one mapping from a
config onto ``Experiment``'s keywords.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from repro.distributed.runtime import BACKENDS
from repro.distributed.worker import CLIP_MODES
from repro.exceptions import ConfigurationError
from repro.pipeline.registry import MOMENTUM_PLACEMENTS, REGISTRY
from repro.simulation.participation import PARTICIPATION_KINDS
from repro.typing import is_finite_number, is_integer

__all__ = ["ExperimentConfig", "PAPER_SEEDS", "check_cell"]

#: The paper's "specified seeds (in 1 to 5)".
PAPER_SEEDS: tuple[int, ...] = (1, 2, 3, 4, 5)

#: Integer settings with a lower bound (``None`` passes where allowed).
MINIMUMS = {
    "num_steps": 1,
    "f": 0,
    "batch_size": 1,
    "eval_every": 1,
    "num_shards": 1,
    "checkpoint_every": 1,
    "num_byzantine": 0,
}

#: String settings that may not be empty.
NONEMPTY = frozenset({"name", "checkpoint"})

#: Real settings confined to ``(low, high]``.
INTERVALS = {"round_timeout": (0.0, math.inf), "participation_rate": (0.0, 1.0)}

#: Settings drawn from a closed set of values.
CHOICES = {
    "momentum_at": MOMENTUM_PLACEMENTS,
    "clip_mode": CLIP_MODES,
    "backend": BACKENDS,
    "participation_kind": PARTICIPATION_KINDS,
}

#: Settings that name a registered component, and the registry family.
FAMILIES = {
    "gar": "gar",
    "attack": "attack",
    "noise_kind": "mechanism",
    "policy": "policy",
    "latency": "latency",
    "codec": "codec",
    "data_distribution": "distribution",
    "network": "network",
}

#: Keywords the experiment passes when it builds a component, which the
#: component's spec and ``<field>_kwargs`` may not set (nor may the
#: ``*_kwargs`` set ``"name"``: the component's own field names it).
RUN_KEYWORDS = {
    "gar": ("n", "f"),
    "noise_kind": ("epsilon", "delta", "g_max", "batch_size", "dimension"),
    "data_distribution": ("dataset", "num_shards", "rng"),
    "network": ("rng",),
    "codec": ("rng",),
}

#: The settings the cross-field rules read.
_RULE_FIELDS = frozenset(
    {
        "n",
        "f",
        "num_byzantine",
        "attack",
        "faults",
        "faults_kwargs",
        "checkpoint",
        "backend",
        "participation_rate",
        "policy",
    }
)


def _invalid(name: str, problem: str) -> ConfigurationError:
    return ConfigurationError(f"config field {name!r} {problem}")


def spec_name(spec):
    """The component name a registry field holds (a name or a spec)."""
    return spec.get("name") if isinstance(spec, dict) else spec


def check_cell(values: dict) -> None:
    """Check a cell's settings; raise :class:`ConfigurationError` naming the field.

    ``values`` maps setting names to values.  Only the settings given
    are checked, and a cross-field rule only when every setting it
    reads is given.  A registry field holds a registered name or a
    ``{"name": ..., **kwargs}`` spec; a component given as an instance
    skips the registry check.  Neither a spec nor a ``*_kwargs``
    setting may set the keywords in :data:`RUN_KEYWORDS`.
    """
    for name, value in values.items():
        if name in MINIMUMS:
            if value is not None and value < MINIMUMS[name]:
                raise _invalid(name, f"must be >= {MINIMUMS[name]}, got {value!r}")
        elif name in INTERVALS:
            low, high = INTERVALS[name]
            if not low < value <= high:
                raise _invalid(name, f"must be in ({low:g}, {high:g}], got {value!r}")
        elif name in CHOICES:
            if value not in CHOICES[name]:
                raise _invalid(name, f"must be one of {CHOICES[name]}, got {value!r}")
        elif name in NONEMPTY:
            if value == "":
                raise _invalid(name, "must be a non-empty string")
        elif name.endswith("_kwargs"):
            owned = {"name", *RUN_KEYWORDS.get(name.removesuffix("_kwargs"), ())}
            _check_keywords(name, owned & set(dict(value or ())))
        elif name in FAMILIES and isinstance(value, (str, dict)):
            family, component = FAMILIES[name], spec_name(value)
            if not isinstance(component, str):
                raise _invalid(
                    name,
                    f"must be a {family} name or a {{'name': ...}} spec, got {value!r}",
                )
            if not REGISTRY.has(family, component):
                raise _invalid(
                    name,
                    f"must name a registered {family} "
                    f"({', '.join(REGISTRY.available(family))}), got {component!r}",
                )
            if isinstance(value, dict):
                _check_keywords(name, set(RUN_KEYWORDS.get(name, ())) & set(value))
    if _RULE_FIELDS <= values.keys():
        _check_rules(values)


def _check_keywords(name: str, owned: set) -> None:
    if owned:
        raise _invalid(
            name, f"cannot set {sorted(owned)}: the experiment provides them"
        )


def _check_rules(values: dict) -> None:
    """The cross-field rules of :func:`check_cell`."""
    f, attack = values["f"], values["attack"]
    byzantine = values["num_byzantine"]
    if byzantine is None:  # an attack brings f attackers, no attack none
        byzantine = f if attack is not None else 0
    if byzantine > f:
        raise _invalid(
            "num_byzantine", f"({byzantine}) cannot exceed the declared f ({f})"
        )
    if byzantine > 0 and attack is None:
        raise _invalid("num_byzantine", f"({byzantine}) > 0 requires an attack")
    if values["n"] - byzantine < 1:
        raise _invalid(
            "n",
            f"({values['n']}) must exceed the {byzantine} Byzantine workers "
            "(num_byzantine, or f under an attack): need at least one honest worker",
        )
    if values["faults_kwargs"] and values["faults"] is None:
        raise _invalid("faults_kwargs", "requires faults")
    if values["checkpoint"] is not None and values["backend"] != "inprocess":
        raise _invalid(
            "checkpoint",
            "requires the inprocess backend (shard-process state lives "
            "behind the fault plane's respawn path instead)",
        )
    policy = values["policy"]
    if isinstance(policy, (str, dict)):
        policy = REGISTRY.get("policy", spec_name(policy))
    if values["participation_rate"] < 1.0 and not getattr(policy, "barrier", True):
        # Per-round sampling needs rounds: a non-barrier policy would
        # freeze the round-1 draw for the whole run.
        raise _invalid(
            "participation_rate",
            "< 1 requires a barrier-style policy (sync / semi-sync); "
            "non-barrier policies drive workers individually, so "
            "per-round sampling is undefined",
        )


def _is_seeds(value) -> bool:
    return isinstance(value, tuple) and all(
        is_integer(seed) and seed >= 0 for seed in value
    )


def _is_pairs(value) -> bool:
    return isinstance(value, tuple) and all(
        isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
        for pair in value
    )


#: The annotations of the ``*_kwargs`` pair lists and of ``seeds``.
_PAIRS = "tuple[tuple[str, object], ...]"
_SEEDS = "tuple[int, ...]"

#: Each annotation alternative: whether a value fits it, and its name.
_SHAPES = {
    "None": (lambda value: value is None, "null"),
    "int": (is_integer, "an integer"),
    "float": (is_finite_number, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "dict": (lambda value: isinstance(value, dict), "an object"),
    _PAIRS: (_is_pairs, "an object or a list of [key, value] pairs"),
    _SEEDS: (_is_seeds, "a list of integers >= 0"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experimental cell, repeated over ``seeds``.

    Registry fields (``gar``, ``attack``, ``noise_kind``, ``policy``,
    ``latency``, ``codec``) hold a registered name or a
    ``{"name": ..., **kwargs}`` spec.
    """

    name: str
    num_steps: int = 1000
    n: int = 11
    f: int = 5
    num_byzantine: int | None = None
    gar: str | dict = "mda"
    attack: str | dict | None = None
    attack_kwargs: tuple[tuple[str, object], ...] = ()
    batch_size: int = 50
    g_max: float | None = 1e-2
    epsilon: float | None = None
    delta: float = 1e-6
    noise_kind: str | dict = "gaussian"
    learning_rate: float = 2.0
    momentum: float = 0.99
    momentum_at: str = "worker"
    clip_mode: str = "batch"
    drop_probability: float = 0.0
    eval_every: int = 50
    seeds: tuple[int, ...] = PAPER_SEEDS
    # Event-driven simulation knobs (the simulator runs them; the
    # synchronous path only checks them).  The defaults replay the
    # paper's protocol.
    policy: str | dict = "sync"
    policy_kwargs: tuple[tuple[str, object], ...] = ()
    latency: str | dict | None = None
    latency_kwargs: tuple[tuple[str, object], ...] = ()
    participation_rate: float = 1.0
    participation_kind: str = "poisson"
    # Wire-compression codec (a semantic knob: lossy codecs change what
    # the server aggregates, so — unlike the backend fields below — it
    # IS part of the campaign cell key).
    codec: str | dict | None = None
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
        for field_ in fields(self):
            # Annotations are strings here (``from __future__ import annotations``).
            kinds = field_.type.split(" | ")
            value = getattr(self, field_.name)
            if not any(_SHAPES[kind][0](value) for kind in kinds):
                *others, last = [_SHAPES[kind][1] for kind in kinds]
                expected = f"{', '.join(others)} or {last}" if others else last
                raise _invalid(field_.name, f"must be {expected}, got {value!r}")
        if not self.seeds:
            raise _invalid("seeds", "needs at least one seed")
        check_cell({field_.name: getattr(self, field_.name) for field_ in fields(self)})

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

    def experiment_kwargs(self, seed: int) -> dict:
        """Keyword arguments for :class:`repro.pipeline.Experiment` at ``seed``.

        Every field but ``name`` and ``seeds`` is the keyword of the
        same name; a ``*_kwargs`` pair list becomes a dict, or ``None``
        when empty.
        """
        kwargs: dict = {"seed": seed}
        for field_ in fields(self):
            value = getattr(self, field_.name)
            if field_.type == _PAIRS:
                value = dict(value) or None
            if field_.name not in ("name", "seeds"):
                kwargs[field_.name] = value
        return kwargs

    def with_updates(self, **changes) -> "ExperimentConfig":
        """A copy with some fields replaced (dataclasses.replace wrapper)."""
        payload = asdict(self)
        payload.update(changes)
        return ExperimentConfig(**payload)

    def smoke(self) -> "ExperimentConfig":
        """A seconds-scale copy: at most 5 steps and the first seed."""
        return self.with_updates(
            num_steps=min(self.num_steps, 5),
            eval_every=min(self.eval_every, 5),
            seeds=self.seeds[:1],
        )

    def to_dict(self) -> dict:
        """JSON-serialisable representation (inverse: :meth:`from_dict`)."""
        payload = asdict(self)
        payload["seeds"] = [int(seed) for seed in self.seeds]
        for field_ in fields(self):
            if field_.type == _PAIRS:
                payload[field_.name] = [list(pair) for pair in payload[field_.name]]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output or hand-written JSON.

        A ``*_kwargs`` field may be a mapping (the natural JSON form), a
        list of ``[key, value]`` pairs or null; ``seeds`` a list of
        integers >= 0.  Any other shape fails, naming the field.
        """
        data = dict(payload)
        unknown = set(data) - {field_.name for field_ in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown config fields: {', '.join(sorted(unknown))}"
            )
        if "name" not in data:
            raise ConfigurationError("config field 'name' is required")
        for field_ in fields(cls):
            value = data.get(field_.name)
            if field_.type == _SEEDS and isinstance(value, list):
                data[field_.name] = tuple(value)
            elif field_.type == _PAIRS and field_.name in data:
                if value is None:  # JSON null means "no kwargs"
                    data[field_.name] = ()
                elif isinstance(value, dict):
                    data[field_.name] = tuple(value.items())
                elif isinstance(value, list):
                    data[field_.name] = tuple(
                        tuple(pair) if isinstance(pair, list) else pair
                        for pair in value
                    )
        return cls(**data)

    def describe(self) -> str:
        """Compact human-readable summary."""
        dp = f"eps={self.epsilon}" if self.uses_dp else "no-DP"
        attack = spec_name(self.attack) if self.attack is not None else "no-attack"
        extras = ""
        if self.policy != "sync" or self.latency is not None or self.participation_rate < 1.0:
            extras = (
                f", policy={spec_name(self.policy)}, "
                f"latency={spec_name(self.latency) or 'zero'}, "
                f"q={self.participation_rate:g}"
            )
        if self.backend != "inprocess":
            extras += f", backend={self.backend}"
        if self.codec is not None:
            extras += f", codec={spec_name(self.codec)}"
        if self.faults is not None:
            faults = self.faults if isinstance(self.faults, str) else "schedule"
            extras += f", faults={faults}"
        return (
            f"{self.name}: {spec_name(self.gar)} (n={self.n}, f={self.f}), {attack}, "
            f"b={self.batch_size}, {dp}, T={self.num_steps}, "
            f"{len(self.seeds)} seeds{extras}"
        )
