"""Unified component registry.

One registry covers every pluggable component family of the library —
aggregation rules, attacks, models, noise mechanisms, learning-rate
schedules, data distributions, networks, latency models, server
policies and wire codecs — so that any component is
constructible from a plain ``{"name": ..., **kwargs}`` spec (or a bare
name string).  This subsumes the ad-hoc ``get_gar``/``get_attack``
dispatch: both now delegate here, and anything registered through this
module becomes reachable from experiment configs and the CLI.

Built-in components are registered lazily on first use, so importing
this module is cheap and free of circular imports.

>>> from repro.pipeline.registry import build_component
>>> gar = build_component("gar", {"name": "mda"}, n=11, f=5)
>>> gar.name
'mda'
"""

from __future__ import annotations

from typing import Any, Callable

from repro.exceptions import ConfigurationError, ReproError

__all__ = [
    "ComponentRegistry",
    "REGISTRY",
    "register_component",
    "build_component",
    "available_components",
    "component_families",
    "build_mechanism",
    "MOMENTUM_PLACEMENTS",
]

#: The component families the built-in bootstrap populates.
BUILTIN_FAMILIES = (
    "gar",
    "attack",
    "model",
    "mechanism",
    "schedule",
    "distribution",
    "network",
    "latency",
    "policy",
    "codec",
)

#: Valid values for the momentum buffer placement (not a registry
#: family — placement is a structural choice, not a component).
MOMENTUM_PLACEMENTS = ("server", "worker")


class ComponentRegistry:
    """Name -> factory mapping, grouped by component family.

    A *factory* is any callable returning the component — usually the
    component class itself.  :meth:`build` merges caller-provided
    context keywords (e.g. a GAR's ``n``/``f``) under the spec's own
    keywords, so specs can override the defaults the call site injects.
    """

    def __init__(self, bootstrap: Callable[["ComponentRegistry"], None] | None = None):
        self._families: dict[str, dict[str, Callable[..., Any]]] = {}
        self._bootstrap = bootstrap
        self._bootstrapped = bootstrap is None
        self._bootstrapping = False

    def _ensure_bootstrapped(self) -> None:
        # The flag flips only on success, so a failed bootstrap (e.g. a
        # broken import) is retried rather than leaving the registry
        # permanently half-populated; _bootstrapping guards against
        # recursion from the bootstrap's own register() calls.
        if self._bootstrapped or self._bootstrapping:
            return
        self._bootstrapping = True
        try:
            assert self._bootstrap is not None
            self._bootstrap(self)
            self._bootstrapped = True
        finally:
            self._bootstrapping = False

    @staticmethod
    def parse_spec(spec) -> tuple[str, dict]:
        """Split a spec into ``(name, kwargs)``.

        Accepts a bare name string or a ``{"name": ..., **kwargs}``
        mapping; anything else is a :class:`ConfigurationError`.
        """
        if isinstance(spec, str):
            return spec, {}
        if isinstance(spec, dict):
            if "name" not in spec:
                raise ConfigurationError(
                    f"component spec needs a 'name' key, got {sorted(spec)!r}"
                )
            kwargs = dict(spec)
            name = kwargs.pop("name")
            if not isinstance(name, str):
                raise ConfigurationError(
                    f"component spec 'name' must be a string, got {name!r}"
                )
            return name, kwargs
        raise ConfigurationError(
            f"component spec must be a name or a dict with a 'name' key, "
            f"got {type(spec).__name__}"
        )

    def register(
        self,
        family: str,
        name: str | None = None,
        factory: Callable[..., Any] | None = None,
        *,
        overwrite: bool = False,
    ):
        """Register ``factory`` under ``family``/``name``.

        Usable directly (``register("gar", "mda", MDAGAR)``) or as a
        class decorator (``@register("gar")``, which reads the class's
        ``name`` attribute).  Re-registering an existing name raises
        unless ``overwrite=True``.
        """

        # Bootstrap first so user registrations never collide with the
        # builtin pass later (and overwrite=True can target builtins).
        self._ensure_bootstrapped()

        def _do_register(target: Callable[..., Any]) -> Callable[..., Any]:
            resolved = name if name is not None else getattr(target, "name", None)
            if not resolved or not isinstance(resolved, str):
                raise ConfigurationError(
                    f"cannot infer a registry name for {target!r}; pass name="
                )
            bucket = self._families.setdefault(family, {})
            if resolved in bucket and not overwrite:
                raise ConfigurationError(
                    f"{family} component {resolved!r} is already registered "
                    f"(pass overwrite=True to replace it)"
                )
            bucket[resolved] = target
            return target

        if factory is not None:
            return _do_register(factory)
        return _do_register

    def has(self, family: str, name: str) -> bool:
        """Whether ``name`` is registered under ``family``."""
        self._ensure_bootstrapped()
        return name in self._families.get(family, {})

    def get(self, family: str, name: str) -> Callable[..., Any]:
        """The raw factory for ``family``/``name``."""
        self._ensure_bootstrapped()
        try:
            return self._families[family][name]
        except KeyError:
            if family not in self._families:
                raise ConfigurationError(
                    f"unknown component family {family!r}; "
                    f"available: {', '.join(self.families())}"
                ) from None
            raise ConfigurationError(
                f"unknown {family} {name!r}; "
                f"available: {', '.join(self.available(family))}"
            ) from None

    def build(self, family: str, spec, **context) -> Any:
        """Construct a component from ``spec``.

        ``context`` keywords are call-site defaults (a GAR's ``n``/``f``,
        a distribution's ``dataset``/``rng``); keys in the spec win.  An
        error the factory raises names the family and the component: a
        library error keeps its type, and a ``TypeError`` or
        ``ValueError`` (a rejected keyword) becomes a
        :class:`ConfigurationError`.
        """
        name, kwargs = self.parse_spec(spec)
        factory = self.get(family, name)
        try:
            return factory(**{**context, **kwargs})
        except ReproError as error:
            raise type(error)(f"{family} {name!r}: {error}") from error
        except (TypeError, ValueError) as error:
            raise ConfigurationError(f"{family} {name!r}: {error}") from error

    def available(self, family: str) -> tuple[str, ...]:
        """Sorted names registered under ``family``."""
        self._ensure_bootstrapped()
        return tuple(sorted(self._families.get(family, {})))

    def families(self) -> tuple[str, ...]:
        """Sorted family names with at least one registration."""
        self._ensure_bootstrapped()
        return tuple(sorted(self._families))

    def __repr__(self) -> str:
        counts = {family: len(bucket) for family, bucket in sorted(self._families.items())}
        return f"ComponentRegistry({counts})"


def _shared_distribution(dataset, num_shards, rng=None):
    # The paper's data model: every worker samples the full training set.
    del rng
    return [dataset] * num_shards


def _gaussian_mechanism(*, epsilon, delta, g_max, batch_size, dimension=None):
    del dimension  # Gaussian calibration is dimension-free
    from repro.privacy.mechanisms import GaussianMechanism

    return GaussianMechanism.for_clipped_gradients(epsilon, delta, g_max, batch_size)


def _laplace_mechanism(*, epsilon, g_max, batch_size, dimension, delta=None):
    del delta  # pure eps-DP
    from repro.privacy.mechanisms import LaplaceMechanism

    return LaplaceMechanism.for_clipped_gradients(epsilon, g_max, batch_size, dimension)


def _register_builtins(registry: ComponentRegistry) -> None:
    """Populate ``registry`` with every built-in component family."""
    from repro.attacks import ATTACK_REGISTRY
    from repro.data.sharding import shard_by_label, shard_iid
    from repro.distributed.network import LossyNetwork, PerfectNetwork
    from repro.gars import GAR_REGISTRY
    from repro.models import (
        LinearRegressionModel,
        LogisticRegressionModel,
        MLPClassifierModel,
        MeanEstimationModel,
        SoftmaxClassifierModel,
    )
    from repro.optim.schedules import (
        ConstantSchedule,
        InverseTimeSchedule,
        StepDecaySchedule,
    )

    for name, gar_cls in GAR_REGISTRY.items():
        registry.register("gar", name, gar_cls)
    for name, attack_cls in ATTACK_REGISTRY.items():
        registry.register("attack", name, attack_cls)
    for model_cls in (
        LinearRegressionModel,
        LogisticRegressionModel,
        MLPClassifierModel,
        MeanEstimationModel,
        SoftmaxClassifierModel,
    ):
        registry.register("model", model_cls.name, model_cls)
    registry.register("mechanism", "gaussian", _gaussian_mechanism)
    registry.register("mechanism", "laplace", _laplace_mechanism)
    registry.register("schedule", "constant", ConstantSchedule)
    registry.register("schedule", "inverse-time", InverseTimeSchedule)
    registry.register("schedule", "step-decay", StepDecaySchedule)
    registry.register("distribution", "shared", _shared_distribution)
    registry.register("distribution", "iid-shards", shard_iid)
    registry.register("distribution", "label-shards", shard_by_label)
    registry.register("network", "perfect", PerfectNetwork)
    registry.register("network", "lossy", LossyNetwork)

    from repro.simulation.latency import (
        ConstantLatency,
        LognormalLatency,
        StragglerLatency,
    )
    from repro.simulation.policies import (
        AsyncStalenessPolicy,
        BufferedSemiSyncPolicy,
        SyncPolicy,
    )

    for latency_cls in (ConstantLatency, LognormalLatency, StragglerLatency):
        registry.register("latency", latency_cls.name, latency_cls)
    for policy_cls in (SyncPolicy, BufferedSemiSyncPolicy, AsyncStalenessPolicy):
        registry.register("policy", policy_cls.name, policy_cls)

    from repro.compression import (
        DiscreteGaussianCodec,
        IdentityCodec,
        SignCodec,
        StochasticQuantizationCodec,
        TopKCodec,
    )

    for codec_cls in (
        IdentityCodec,
        TopKCodec,
        SignCodec,
        StochasticQuantizationCodec,
        DiscreteGaussianCodec,
    ):
        registry.register("codec", codec_cls.name, codec_cls)


#: The process-wide default registry, lazily seeded with the built-ins.
REGISTRY = ComponentRegistry(bootstrap=_register_builtins)


def register_component(family, name=None, factory=None, *, overwrite=False):
    """Register into the default registry (see :meth:`ComponentRegistry.register`)."""
    return REGISTRY.register(family, name, factory, overwrite=overwrite)


def build_component(family, spec, **context):
    """Build from the default registry (see :meth:`ComponentRegistry.build`)."""
    return REGISTRY.build(family, spec, **context)


def available_components(family: str) -> tuple[str, ...]:
    """Sorted names of the default registry's ``family``."""
    return REGISTRY.available(family)


def component_families() -> tuple[str, ...]:
    """Sorted family names of the default registry."""
    return REGISTRY.families()


def build_mechanism(
    noise_kind: str,
    epsilon: float,
    delta: float,
    g_max: float,
    batch_size: int,
    dimension: int,
) -> Any:
    """Construct the per-worker DP mechanism the paper's Section 2.3 defines.

    Dispatches through the ``"mechanism"`` registry family, so custom
    mechanisms registered there are reachable by name too.
    """
    from repro.experiments.config import check_cell

    check_cell({"noise_kind": noise_kind})
    return REGISTRY.build(
        "mechanism",
        noise_kind,
        epsilon=epsilon,
        delta=delta,
        g_max=g_max,
        batch_size=batch_size,
        dimension=dimension,
    )
