"""Composable experiment builder.

:class:`Experiment` decomposes the monolithic ``train()`` into explicit
stages — :meth:`~Experiment.build_data`, :meth:`~Experiment.build_workers`,
:meth:`~Experiment.build_server`, :meth:`~Experiment.build_cluster`,
:meth:`~Experiment.run` — each cached and independently inspectable.
Every pluggable component (GAR, attack, model, noise mechanism,
learning-rate schedule, data distribution, network) is accepted either
as an instance, a bare name, or a ``{"name": ..., **kwargs}`` spec
resolved through :mod:`repro.pipeline.registry`.

Seed streams come from a path-addressed :class:`repro.rng.SeedTree`, so
the stage *order* never affects randomness: building workers before or
after the server yields bit-identical runs, and an ``Experiment`` built
from the same arguments reproduces ``train()`` exactly.

>>> from repro.pipeline import Experiment
>>> from repro.experiments.runner import phishing_environment
>>> model, train_set, test_set = phishing_environment()
>>> result = Experiment(
...     model=model, train_dataset=train_set, test_dataset=test_set,
...     num_steps=100, gar={"name": "mda"}, attack={"name": "little"},
...     epsilon=0.2, seed=1,
... ).run()  # doctest: +SKIP
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from repro.attacks import ByzantineAttack, get_attack
from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.distributed.cluster import Cluster
from repro.distributed.runtime import BACKENDS, MultiprocessCluster, WorkerShardSpec
from repro.distributed.server import ParameterServer
from repro.distributed.worker import HonestWorker
from repro.exceptions import ConfigurationError
from repro.faults import build_fault_plan, shard_partition
from repro.gars import GAR, get_gar
from repro.gars.average import AverageGAR
from repro.models.base import Model
from repro.optim.schedules import LearningRateSchedule
from repro.optim.sgd import SGDOptimizer
from repro.pipeline.callbacks import AccuracyCallback, Callback, CallbackList
from repro.pipeline.loop import LoopState, TrainingLoop
from repro.pipeline.registry import (
    MOMENTUM_PLACEMENTS,
    REGISTRY,
    ComponentRegistry,
    build_mechanism,
)
from repro.pipeline.results import TrainingResult, privacy_report
from repro.privacy.mechanisms import NoiseMechanism
from repro.rng import SeedTree

__all__ = ["Experiment", "MOMENTUM_PLACEMENTS", "BACKENDS"]


def _resolve_gar(gar, n: int, f: int, gar_kwargs: dict | None) -> GAR:
    if isinstance(gar, GAR):
        if gar.n != n or gar.f != f:
            raise ConfigurationError(
                f"provided GAR is bound to (n={gar.n}, f={gar.f}) but the run "
                f"uses (n={n}, f={f})"
            )
        return gar
    if isinstance(gar, dict):
        name, spec_kwargs = ComponentRegistry.parse_spec(gar)
        kwargs = {**(gar_kwargs or {}), **spec_kwargs}
    else:
        name, kwargs = gar, dict(gar_kwargs or {})
    if name == AverageGAR.name and f > 0:
        # The experiments deliberately run the non-robust baseline.
        kwargs.setdefault("allow_byzantine", True)
    return get_gar(name, n, f, **kwargs)


def _resolve_attack(attack, attack_kwargs: dict | None) -> ByzantineAttack | None:
    if attack is None:
        return None
    if isinstance(attack, ByzantineAttack):
        if attack_kwargs:
            raise ConfigurationError(
                "attack_kwargs only apply when the attack is given by name"
            )
        return attack
    if isinstance(attack, dict):
        name, spec_kwargs = ComponentRegistry.parse_spec(attack)
        return get_attack(name, **{**(attack_kwargs or {}), **spec_kwargs})
    return get_attack(attack, **(attack_kwargs or {}))


def _resolve_schedule(learning_rate):
    if isinstance(learning_rate, dict):
        return REGISTRY.build("schedule", learning_rate)
    return learning_rate  # float or LearningRateSchedule, handled by SGDOptimizer


class Experiment:
    """One distributed training experiment, built stage by stage.

    Accepts exactly the keyword surface of the legacy
    :func:`repro.distributed.trainer.train` (which is now a thin wrapper
    over this class), with three extensions: components may be given as
    registry specs, a ``network`` spec/instance can replace the
    ``drop_probability`` shorthand, and ``callbacks`` hook into the
    training loop.

    Structural parameters and component *names* are validated at
    construction time; component-specific keyword errors surface when
    the owning stage builds.  The build stages are lazy and cached, and
    :meth:`run` re-builds from scratch if the cluster was already
    stepped, so a single ``Experiment`` can be run repeatedly with
    bit-identical results.
    """

    def __init__(
        self,
        *,
        model: Model | str | dict,
        train_dataset: Dataset,
        test_dataset: Dataset | None = None,
        num_steps: int = 1000,
        n: int = 11,
        f: int = 5,
        num_byzantine: int | None = None,
        gar: str | dict | GAR = "mda",
        gar_kwargs: dict | None = None,
        attack: str | dict | ByzantineAttack | None = None,
        attack_kwargs: dict | None = None,
        batch_size: int = 50,
        g_max: float | None = 1e-2,
        epsilon: float | None = None,
        delta: float = 1e-6,
        noise_kind: str | dict = "gaussian",
        learning_rate: float | dict | LearningRateSchedule = 2.0,
        momentum: float = 0.99,
        momentum_at: str = "worker",
        nesterov: bool = False,
        clip_mode: str = "batch",
        drop_probability: float = 0.0,
        data_distribution: str | dict = "shared",
        eval_every: int = 50,
        seed: int = 1,
        record_gradients: bool = False,
        network=None,
        callbacks: Iterable[Callback] = (),
        policy=None,
        policy_kwargs: dict | None = None,
        latency=None,
        latency_kwargs: dict | None = None,
        codec=None,
        codec_kwargs: dict | None = None,
        participation_rate: float = 1.0,
        participation_kind: str = "poisson",
        backend: str = "inprocess",
        num_shards: int | None = None,
        round_timeout: float = 30.0,
        telemetry=None,
        faults=None,
        faults_kwargs: dict | None = None,
        checkpoint: str | Path | None = None,
        checkpoint_every: int = 1,
    ):
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        if eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {eval_every}")
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if num_shards is not None and num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if round_timeout <= 0:
            raise ConfigurationError(
                f"round_timeout must be > 0, got {round_timeout}"
            )
        if momentum_at not in MOMENTUM_PLACEMENTS:
            raise ConfigurationError(
                f"momentum_at must be one of {MOMENTUM_PLACEMENTS}, got {momentum_at!r}"
            )
        if isinstance(model, (str, dict)):
            model = REGISTRY.build("model", model)
        if num_byzantine is None:
            num_byzantine = f if attack is not None else 0
        if num_byzantine < 0:
            raise ConfigurationError(
                f"num_byzantine must be >= 0, got {num_byzantine}"
            )
        if num_byzantine > f:
            raise ConfigurationError(
                f"num_byzantine ({num_byzantine}) cannot exceed the declared f ({f})"
            )
        num_honest = n - num_byzantine
        if num_honest < 1:
            raise ConfigurationError("need at least one honest worker")
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint is not None and backend != "inprocess":
            raise ConfigurationError(
                "checkpointing requires the inprocess backend (shard-process "
                "state lives behind the fault plane's respawn path instead)"
            )

        self.seeds = SeedTree(seed)
        self.gar = _resolve_gar(gar, n, f, gar_kwargs)
        self.attack = _resolve_attack(attack, attack_kwargs)
        if num_byzantine > 0 and self.attack is None:
            raise ConfigurationError("num_byzantine > 0 requires an attack")

        self.mechanism: NoiseMechanism | None = None
        self._noise_kind_name: str | None = None
        if epsilon is not None:
            if g_max is None:
                raise ConfigurationError("DP requires g_max (Assumption 1)")
            if isinstance(noise_kind, dict):
                self._noise_kind_name = ComponentRegistry.parse_spec(noise_kind)[0]
                self.mechanism = REGISTRY.build(
                    "mechanism",
                    noise_kind,
                    epsilon=epsilon,
                    delta=delta,
                    g_max=g_max,
                    batch_size=batch_size,
                    dimension=model.dimension,
                )
            else:
                self._noise_kind_name = noise_kind
                self.mechanism = build_mechanism(
                    noise_kind, epsilon, delta, g_max, batch_size, model.dimension
                )

        # Names and specs must be registered; instances bypass the registry.
        for argument, family, spec in (
            ("data_distribution", "distribution", data_distribution),
            ("network", "network", network),
            ("policy", "policy", policy),
            ("latency", "latency", latency),
            ("codec", "codec", codec),
        ):
            if isinstance(spec, (str, dict)):
                name = ComponentRegistry.parse_spec(spec)[0]
                if not REGISTRY.has(family, name):
                    raise ConfigurationError(
                        f"{argument} must be one of {REGISTRY.available(family)}, "
                        f"got {name!r}"
                    )
        if not 0.0 < participation_rate <= 1.0:
            raise ConfigurationError(
                f"participation_rate must be in (0, 1], got {participation_rate}"
            )
        from repro.simulation.participation import PARTICIPATION_KINDS

        if participation_kind not in PARTICIPATION_KINDS:
            raise ConfigurationError(
                f"participation_kind must be one of {PARTICIPATION_KINDS}, "
                f"got {participation_kind!r}"
            )
        if participation_rate < 1.0:
            # Per-round sampling needs rounds: a non-barrier policy would
            # freeze the round-1 draw for the whole run (the engine also
            # enforces this; checking here fails fast at construction).
            if isinstance(policy, (str, dict)):
                factory = REGISTRY.get("policy", ComponentRegistry.parse_spec(policy)[0])
                policy_is_barrier = getattr(factory, "barrier", True)
            else:
                policy_is_barrier = getattr(policy, "barrier", True)
            if not policy_is_barrier:
                raise ConfigurationError(
                    "participation_rate < 1 requires a barrier-style policy "
                    "(sync / semi-sync); non-barrier policies drive workers "
                    "individually, so per-round sampling is undefined"
                )

        self.model = model
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.num_steps = int(num_steps)
        self.n = int(n)
        self.f = int(f)
        self.num_byzantine = int(num_byzantine)
        self.num_honest = int(num_honest)
        self.batch_size = int(batch_size)
        self.g_max = g_max
        self.epsilon = epsilon
        self.delta = delta
        self.learning_rate = _resolve_schedule(learning_rate)
        self.momentum = float(momentum)
        self.momentum_at = momentum_at
        self.nesterov = bool(nesterov)
        self.clip_mode = clip_mode
        self.drop_probability = float(drop_probability)
        self.data_distribution = data_distribution
        self.eval_every = int(eval_every)
        self.seed = seed
        self.record_gradients = bool(record_gradients)
        self.network_spec = network
        self.callbacks: list[Callback] = list(callbacks)
        self.policy_spec = policy
        self.policy_kwargs = dict(policy_kwargs or {})
        self.latency_spec = latency
        self.latency_kwargs = dict(latency_kwargs or {})
        self.codec_spec = codec
        self.codec_kwargs = dict(codec_kwargs or {})
        self.participation_rate = float(participation_rate)
        self.participation_kind = participation_kind
        self.backend = backend
        self.num_shards = num_shards if num_shards is None else int(num_shards)
        self.round_timeout = float(round_timeout)
        self.checkpoint = None if checkpoint is None else str(checkpoint)
        self.checkpoint_every = int(checkpoint_every)
        self.faults_spec = faults
        self.faults_kwargs = dict(faults_kwargs or {})
        self.fault_plan = None
        self._resolved_faults = None
        if faults is not None:
            spec = faults
            if isinstance(spec, str):
                spec = {"name": spec, **self.faults_kwargs}
            elif isinstance(spec, dict):
                spec = {**self.faults_kwargs, **spec}
            elif self.faults_kwargs:
                raise ConfigurationError(
                    "faults_kwargs only apply when faults is given by name/spec"
                )
            plan = build_fault_plan(
                spec,
                num_rounds=self.num_steps,
                num_workers=self.num_honest,
                seeds=self.seeds,
            )
            if backend == "multiprocess":
                effective_shards = (
                    self.num_honest
                    if self.num_shards is None
                    else min(self.num_shards, self.num_honest)
                )
                if plan.num_shards != effective_shards:
                    raise ConfigurationError(
                        f"fault plan targets {plan.num_shards} shards but the "
                        f"multiprocess backend launches {effective_shards}; "
                        "set num_shards to match the plan"
                    )
            self.fault_plan = plan
            self._resolved_faults = plan.resolve(self.num_honest)
        elif faults_kwargs:
            raise ConfigurationError("faults_kwargs require faults")
        # None | Telemetry instance | trace path.  A path means each
        # run()/simulate() opens a fresh run-owned handle writing one
        # JSONL trace there; an instance is caller-owned (we open/close
        # the run on it but never close its sinks).
        if telemetry is not None and not isinstance(telemetry, (str, Path)):
            from repro.telemetry import Telemetry

            if not isinstance(telemetry, Telemetry):
                raise ConfigurationError(
                    "telemetry must be None, a Telemetry instance, or a "
                    f"trace path, got {type(telemetry).__name__}"
                )
        self.telemetry = telemetry

        self._worker_datasets: list[Dataset] | None = None
        self._workers: list[HonestWorker] | None = None
        self._server: ParameterServer | None = None
        self._network = None
        self._codec = None
        self._cluster: Cluster | None = None
        self._mp_cluster: MultiprocessCluster | None = None
        self._simulator = None

    @classmethod
    def from_config(
        cls,
        config,
        model: Model,
        train_dataset: Dataset,
        test_dataset: Dataset | None = None,
        *,
        seed: int | None = None,
        callbacks: Iterable[Callback] = (),
        telemetry=None,
    ) -> "Experiment":
        """Build one seed's experiment from an :class:`ExperimentConfig` cell.

        ``seed`` defaults to the config's first seed.  The config's
        simulation fields (policy/latency/participation) are carried
        over too, so the same cell drives :meth:`run` and
        :meth:`simulate` alike.  ``telemetry`` is run infrastructure,
        not part of the cell (it never enters the config's identity).
        """
        if seed is None:
            seed = config.seeds[0]
        return cls(
            model=model,
            train_dataset=train_dataset,
            test_dataset=test_dataset,
            callbacks=callbacks,
            telemetry=telemetry,
            **config.train_kwargs(seed),
            **config.simulation_kwargs(),
        )

    # ------------------------------------------------------------------
    # build stages (lazy, cached, order-independent thanks to SeedTree)
    # ------------------------------------------------------------------

    def build_data(self) -> list[Dataset]:
        """Stage 1: per-honest-worker datasets from the data distribution.

        The distribution name was validated in ``__init__``; the
        registry itself backstops any later mutation.
        """
        if self._worker_datasets is None:
            self._worker_datasets = REGISTRY.build(
                "distribution",
                self.data_distribution,
                dataset=self.train_dataset,
                num_shards=self.num_honest,
                rng=self.seeds.generator("shards"),
            )
        return list(self._worker_datasets)

    def build_workers(self) -> list[HonestWorker]:
        """Stage 2: the honest workers with their private seed streams."""
        if self._workers is None:
            datasets = self.build_data()
            worker_momentum = self.momentum if self.momentum_at == "worker" else 0.0
            self._workers = [
                HonestWorker(
                    worker_id=index,
                    model=self.model,
                    sampler=BatchSampler(
                        datasets[index],
                        self.batch_size,
                        self.seeds.generator("worker", index, "batch"),
                    ),
                    noise_rng=self.seeds.generator("worker", index, "noise"),
                    g_max=self.g_max,
                    mechanism=self.mechanism,
                    clip_mode=self.clip_mode,
                    momentum=worker_momentum,
                )
                for index in range(self.num_honest)
            ]
        return list(self._workers)

    def build_server(self) -> ParameterServer:
        """Stage 3: the parameter server (GAR + optimizer + init params)."""
        if self._server is None:
            server_momentum = self.momentum if self.momentum_at == "server" else 0.0
            optimizer = SGDOptimizer(
                self.learning_rate, momentum=server_momentum, nesterov=self.nesterov
            )
            self._server = ParameterServer(
                initial_parameters=self.model.initial_parameters(
                    self.seeds.generator("init")
                ),
                gar=self.gar,
                optimizer=optimizer,
                record_received=self.record_gradients,
            )
        return self._server

    def build_network(self):
        """The network model: a spec/instance override, or the
        ``drop_probability`` shorthand (> 0 means a lossy network)."""
        if self._network is None:
            spec = self.network_spec
            if spec is None:
                spec = "lossy" if self.drop_probability > 0.0 else "perfect"
            if isinstance(spec, (str, dict)):
                name, kwargs = ComponentRegistry.parse_spec(spec)
                if name == "lossy":
                    kwargs.setdefault("drop_probability", self.drop_probability)
                    kwargs.setdefault("rng", self.seeds.generator("network"))
                self._network = REGISTRY.build("network", {"name": name, **kwargs})
            else:
                self._network = spec
        return self._network

    def build_codec(self):
        """The wire codec: a registry spec/instance, or ``None`` (raw wire).

        Stochastic codecs that arrive without an explicit ``seed`` get
        their root seed from the seed tree's ``"codec"`` stream, so
        sync, simulator and multiprocess builds of the same experiment
        encode identically.
        """
        if self.codec_spec is None:
            return None
        if self._codec is None:
            spec = self.codec_spec
            if isinstance(spec, (str, dict)):
                name, spec_kwargs = ComponentRegistry.parse_spec(spec)
                kwargs = {**self.codec_kwargs, **spec_kwargs}
                if "seed" not in kwargs:
                    kwargs.setdefault("rng", self.seeds.generator("codec"))
                self._codec = REGISTRY.build("codec", {"name": name, **kwargs})
            else:
                self._codec = spec
        return self._codec

    def _round_parts(self) -> dict:
        """The round parts every backend shares: server, adversary and its
        stream, network, codec and fault plan."""
        return dict(
            server=self.build_server(),
            num_byzantine=self.num_byzantine,
            attack=self.attack,
            attack_rng=(
                self.seeds.generator("attack") if self.attack is not None else None
            ),
            network=self.build_network(),
            codec=self.build_codec(),
            faults=self._resolved_faults,
        )

    def build_cluster(self) -> Cluster:
        """Stage 4: wire workers, adversary, network and server together."""
        if self._cluster is None:
            self._cluster = Cluster(
                honest_workers=self.build_workers(), **self._round_parts()
            )
        return self._cluster

    def build_shard_specs(self) -> list[WorkerShardSpec]:
        """Stage 2 (multiprocess variant): picklable worker-shard recipes.

        The honest cohort is split into ``num_shards`` contiguous slices
        (``None`` means process-per-worker); each spec carries the data,
        hyperparameters and the experiment's *root seed*, from which the
        shard process re-derives the exact per-worker seed streams that
        :meth:`build_workers` would use — path-addressing makes the two
        constructions interchangeable.
        """
        datasets = self.build_data()
        worker_momentum = self.momentum if self.momentum_at == "worker" else 0.0
        num_shards = self.num_honest if self.num_shards is None else self.num_shards
        partition = shard_partition(self.num_honest, min(num_shards, self.num_honest))
        codec = self.build_codec()
        return [
            WorkerShardSpec(
                shard_id=shard_id,
                worker_ids=ids,
                model=self.model,
                datasets=tuple(datasets[index] for index in ids),
                batch_size=self.batch_size,
                root_seed=self.seed,
                g_max=self.g_max,
                mechanism=self.mechanism,
                clip_mode=self.clip_mode,
                momentum=worker_momentum,
                codec=codec,
            )
            for shard_id, ids in enumerate(partition)
        ]

    def build_multiprocess_cluster(self) -> MultiprocessCluster:
        """Stage 4 (multiprocess variant): the chief-side cluster runtime.

        Wires the same server, adversary and network objects as
        :meth:`build_cluster` — the aggregation half of every round is
        chief-local and shared with the in-process path — around worker
        shards described by :meth:`build_shard_specs`.  The returned
        cluster is a context manager; callers own its lifecycle
        (:meth:`run` wraps it in ``with`` so shard processes and the
        shared-memory segment are released on any exit, including
        SIGINT).
        """
        if self._mp_cluster is None:
            self._mp_cluster = MultiprocessCluster(
                shard_specs=self.build_shard_specs(),
                round_timeout=self.round_timeout,
                **self._round_parts(),
            )
        return self._mp_cluster

    def build_simulation(self):
        """Stage 4 (event-driven variant): the discrete-event simulator.

        Wires the same workers, adversary, network and server as
        :meth:`build_cluster`, but under the
        :class:`repro.simulation.engine.ClusterSimulator` with this
        experiment's server policy, latency model and participation
        sampler.  The simulator's private streams live under the seed
        tree's ``"simulation"`` subtree, so enabling simulation never
        perturbs the training streams — which is what keeps the
        zero-latency sync policy bit-identical to :meth:`run`.
        """
        if self._simulator is None:
            from repro.simulation.engine import ClusterSimulator
            from repro.simulation.latency import ConstantLatency, LatencyModel
            from repro.simulation.participation import make_participation
            from repro.simulation.policies import ServerPolicy, SyncPolicy

            def resolve(family, spec, kwargs, default_cls, base_cls):
                if spec is None:
                    return default_cls(**kwargs)
                if isinstance(spec, (str, dict)):
                    name, spec_kwargs = ComponentRegistry.parse_spec(spec)
                    return REGISTRY.build(
                        family, {"name": name, **{**kwargs, **spec_kwargs}}
                    )
                if isinstance(spec, base_cls):
                    return spec
                raise ConfigurationError(
                    f"{family} must be a name, spec or {base_cls.__name__}, "
                    f"got {type(spec).__name__}"
                )

            policy = resolve(
                "policy", self.policy_spec, self.policy_kwargs, SyncPolicy, ServerPolicy
            )
            latency = resolve(
                "latency",
                self.latency_spec,
                self.latency_kwargs,
                ConstantLatency,
                LatencyModel,
            )
            self._simulator = ClusterSimulator(
                honest_workers=self.build_workers(),
                policy=policy,
                latency=latency,
                participation=make_participation(
                    self.participation_kind, self.participation_rate
                ),
                seeds=self.seeds.child("simulation"),
                **self._round_parts(),
            )
        return self._simulator

    def reset(self) -> None:
        """Drop all built stages; the next build starts fresh.

        Seed streams are path-addressed, so a rebuilt experiment
        reproduces the original bit for bit.
        """
        self._worker_datasets = None
        self._workers = None
        self._server = None
        self._network = None
        self._codec = None
        self._cluster = None
        self._mp_cluster = None
        self._simulator = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    @contextmanager
    def _telemetry_run(self, mode: str):
        """Run-scoped telemetry handle (or ``None`` when disabled).

        Emits ``run_start``/``run_end`` around the body.  A path spec
        builds a fresh run-owned :class:`~repro.telemetry.Telemetry`
        writing one JSONL trace, closed on exit; a caller-provided
        instance keeps its sinks open (flushed only), so one handle can
        observe several runs or feed custom sinks.
        """
        spec = self.telemetry
        if spec is None:
            yield None
            return
        from repro.telemetry import JsonlSink, Telemetry

        if isinstance(spec, Telemetry):
            handle, owned = spec, False
        else:
            handle, owned = Telemetry(sinks=[JsonlSink(spec)]), True
        handle.open_run(
            mode=mode,
            gar=self.gar.name,
            attack=self.attack.name if self.attack is not None else None,
            n=self.n,
            f=self.f,
            num_steps=self.num_steps,
            seed=self.seed,
            backend=self.backend,
            epsilon=self.epsilon,
        )
        try:
            yield handle
        finally:
            handle.close_run()
            if owned:
                handle.close()
            else:
                handle.flush()

    def run(self, callbacks: Iterable[Callback] = ()) -> TrainingResult:
        """Final stage: run the training loop and package the result.

        ``callbacks`` are appended after the experiment-level ones.  If
        the cached stages have already been stepped (a previous
        :meth:`run` or :meth:`simulate`), everything is rebuilt first so
        repeated runs are independent and identical.
        """
        return self._execute("train", callbacks)

    def resume(self, callbacks: Iterable[Callback] = ()) -> TrainingResult:
        """Restore this experiment's checkpoint and finish the run.

        Build the experiment exactly as :meth:`run` would (same
        arguments, same seed), then let
        :meth:`repro.pipeline.loop.TrainingLoop.resume` restore every
        parameter, momentum buffer and RNG stream from the snapshot at
        ``checkpoint`` and execute the remaining rounds.  The completed
        history and final parameters are bit-identical to an
        uninterrupted :meth:`run` (the differential suite pins this).
        """
        return self._execute("resume", callbacks)

    def simulate(self, callbacks: Iterable[Callback] = ()):
        """Run the experiment on the discrete-event simulator.

        The event-driven twin of :meth:`run`: same components, same
        callbacks surface, same :class:`~repro.pipeline.loop.TrainingLoop`,
        but executed by :class:`repro.simulation.engine.ClusterSimulator`
        under this experiment's policy/latency/participation
        configuration.  ``num_steps`` counts *server updates* (rounds
        for the barrier policies, arrivals for the async policy).
        Returns a :class:`repro.simulation.run.SimulationResult` whose
        ``per_worker_privacy`` reports are amplified at each worker's
        per-round inclusion probability (the realized
        ``participation_rates`` are reported alongside, as an
        observation).

        With the default sync policy at zero latency and full
        participation this reproduces :meth:`run` bit for bit (the
        golden-trace suite enforces it).
        """
        return self._execute("simulate", callbacks)

    def _execute(self, mode: str, callbacks: Iterable[Callback]):
        """The one driver behind :meth:`run`, :meth:`resume` and :meth:`simulate`.

        ``mode`` is the telemetry run's mode: ``"train"``, ``"resume"``
        or ``"simulate"``.
        """
        if mode == "resume" and self.checkpoint is None:
            raise ConfigurationError("resume() requires checkpoint=")
        if self._server is not None and self._server.step_count > 0:
            self.reset()
        if mode == "simulate":
            cluster = self.build_simulation()
        elif self.backend == "multiprocess":
            cluster = self.build_multiprocess_cluster()
        else:
            cluster = self.build_cluster()
        all_callbacks = CallbackList([*self.callbacks, *callbacks])
        if self.test_dataset is not None:
            all_callbacks.append(
                AccuracyCallback(self.test_dataset, eval_every=self.eval_every)
            )
        loop = TrainingLoop(
            cluster=cluster,
            model=self.model,
            callbacks=all_callbacks,
            checkpoint=None if mode == "simulate" else self.checkpoint,
            checkpoint_every=self.checkpoint_every,
        )
        with self._telemetry_run(mode) as telemetry:
            # Installed before a multiprocess runtime starts: shard
            # processes are launched with the telemetry queue.
            cluster.telemetry = telemetry
            if mode == "resume":
                state = loop.resume(self.num_steps)
            elif isinstance(cluster, MultiprocessCluster):
                # The context manager guarantees shard teardown and
                # shared-memory release on every exit path (including
                # KeyboardInterrupt); the server keeps the final parameters.
                with cluster:
                    state = loop.run(self.num_steps)
            else:
                state = loop.run(self.num_steps)
            privacy = privacy_report(
                self.mechanism, self.epsilon, self.delta, self.num_steps
            )
            if telemetry is not None and privacy is not None:
                telemetry.gauge("privacy.epsilon_spent", privacy.basic.epsilon)
        if mode == "simulate":
            return self._simulation_result(cluster, state, privacy)
        return TrainingResult(
            history=state.history,
            final_parameters=cluster.parameters,
            privacy=privacy,
            config=self.describe(),
            departed=getattr(cluster, "departed", None) or None,
            bytes_on_wire=(
                cluster.bytes_on_wire_total if cluster.codec is not None else None
            ),
        )

    def _simulation_result(self, simulator, state: LoopState, privacy):
        """Package a simulated run, with each worker's amplified budget."""
        from repro.pipeline.results import amplified_privacy_report
        from repro.simulation.run import SimulationResult

        per_worker = None
        if self.mechanism is not None and self.epsilon is not None:
            if simulator.policy.barrier:
                # Barrier policies: each sampled round invokes a worker's
                # mechanism with its inclusion probability q, so the
                # amplified per-round budget composes over the sampled
                # rounds.  The bound holds at q, whatever rate this run
                # happened to realize.
                rounds = max(1, simulator.sampling_round_count)
                per_worker = {
                    worker: amplified_privacy_report(
                        self.mechanism, self.epsilon, self.delta, rounds, q
                    )
                    for worker, q in simulator.inclusion_probabilities.items()
                }
            else:
                # Non-barrier policies have no per-round sampling to
                # amplify over; compose unamplified over each worker's
                # actual mechanism invocations (gradient computations).
                counts = simulator.computation_counts
                per_worker = {
                    worker: amplified_privacy_report(
                        self.mechanism,
                        self.epsilon,
                        self.delta,
                        max(1, int(counts[worker])),
                        1.0 if counts[worker] else 0.0,
                    )
                    for worker in range(simulator.num_honest)
                }
        config = self.describe()
        config.update(
            {
                "policy": simulator.policy.name,
                "latency": getattr(self.latency_spec, "name", self.latency_spec),
                "participation_rate": self.participation_rate,
                "participation_kind": self.participation_kind,
            }
        )
        return SimulationResult(
            history=state.history,
            final_parameters=simulator.parameters,
            privacy=privacy,
            per_worker_privacy=per_worker,
            participation_rates=simulator.participation_rates,
            virtual_time=simulator.clock,
            rounds=simulator.round_count,
            policy_stats=simulator.stats(),
            config=config,
            bytes_on_wire=(
                simulator.bytes_on_wire_total if simulator.codec is not None else None
            ),
        )

    def describe(self) -> dict:
        """The configuration echo stored on every :class:`TrainingResult`."""
        return {
            "num_steps": self.num_steps,
            "n": self.n,
            "f": self.f,
            "num_byzantine": self.num_byzantine,
            "gar": self.gar.name,
            "attack": self.attack.name if self.attack is not None else None,
            "batch_size": self.batch_size,
            "g_max": self.g_max,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "noise_kind": self._noise_kind_name if self.epsilon is not None else None,
            "momentum": self.momentum,
            "momentum_at": self.momentum_at,
            "clip_mode": self.clip_mode,
            "drop_probability": self.drop_probability,
            "data_distribution": self.data_distribution,
            "seed": self.seed,
            "model_dimension": self.model.dimension,
            "backend": self.backend,
            "codec": self._codec_name(),
            "faults": (
                None if self.fault_plan is None else self.fault_plan.to_dict()
            ),
        }

    def _codec_name(self) -> str | None:
        """The configured codec's registry name (``None`` when raw)."""
        if self.codec_spec is None:
            return None
        if isinstance(self.codec_spec, (str, dict)):
            return ComponentRegistry.parse_spec(self.codec_spec)[0]
        return getattr(self.codec_spec, "name", type(self.codec_spec).__name__)

    def __repr__(self) -> str:
        dp = f"epsilon={self.epsilon}" if self.epsilon is not None else "no-DP"
        return (
            f"Experiment(gar={self.gar.name!r}, n={self.n}, f={self.f}, "
            f"attack={self.attack.name if self.attack else None!r}, {dp}, "
            f"num_steps={self.num_steps}, seed={self.seed})"
        )
