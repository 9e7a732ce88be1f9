"""The chief process: multiprocess twin of :class:`repro.distributed.Cluster`.

:class:`MultiprocessCluster` exposes the in-process cluster's stepping
surface (``step`` / ``run`` / ``parameters`` / ``step_count`` …) while
executing the honest cohort in worker-shard processes
(:mod:`repro.distributed.runtime.shard`) over a shared-memory wire
plane (:mod:`repro.distributed.runtime.wire`).  The chief itself plays
the parameter server and the adversary: it owns the
:class:`~repro.distributed.server.ParameterServer`, the attack and its
RNG, and the network model, so everything after the honest rows —
fault stage, attack, network, GAR, SGD — is *literally the same code*
as the in-process path (:class:`~repro.distributed.cluster.RoundCore`);
only the production of the honest ``(H, d)`` matrices moves across
process boundaries.

Round protocol (per :meth:`step`):

1. publish the current parameters into the plane;
2. send ``("round", step)`` to every live shard;
3. collect ``("done", shard, step)`` replies under ``round_timeout``,
   watching for dead processes while waiting;
4. copy the wire/clean/loss arrays out of the plane, zero the rows of
   departed workers in the shared fault stage, drop their entries from
   the losses the shards' cohort pass scored, and run the shared
   attack → network → GAR → SGD tail, which returns those losses on
   :attr:`StepResult.honest_losses`.

Degraded semantics (crash/timeout/leave): a departed worker stops
existing from the protocol's point of view — its wire row is the zero
vector, exactly what the paper's model ("a non-received gradient is
zero") and the :class:`~repro.distributed.network.LossyNetwork` deliver
for a dropped message, applied one stage earlier because the message
was never produced.  Its clean row is zeroed too (the omniscient
adversary cannot observe a gradient that was never computed) and its
loss row leaves the honest-loss mean.  Departure is permanent and
deterministic given the departure round, so a crashed run's trace is
pinnable.  A timed-out shard is SIGKILLed before the round proceeds,
which guarantees it can never write into a later round.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.attacks.base import ByzantineAttack
from repro.compression.base import GradientCodec
from repro.distributed.cluster import RoundCore, StepResult
from repro.distributed.network import PerfectNetwork
from repro.distributed.runtime.context import multiprocessing_context
from repro.distributed.runtime.shard import WorkerShardSpec, shard_main
from repro.distributed.runtime.wire import WirePlane
from repro.distributed.server import ParameterServer
from repro.exceptions import ConfigurationError, TrainingError
from repro.faults.plan import ResolvedFaultPlan

__all__ = ["MultiprocessCluster"]

#: How often the chief re-checks liveness while waiting on shard replies.
_POLL_SECONDS = 0.05


class MultiprocessCluster(RoundCore):
    """Run cluster rounds with the honest cohort in worker processes.

    Constructor mirrors :class:`repro.distributed.Cluster`, with the
    honest workers described by picklable :class:`WorkerShardSpec`\\ s
    (whose ``worker_ids`` must partition ``0..H-1`` contiguously)
    instead of live :class:`HonestWorker` objects.  The round core
    supplies everything but the honest rows, which come from the wire
    plane.

    Use as a context manager (``with cluster: loop.run(...)``) or call
    :meth:`start` / :meth:`shutdown` explicitly; :meth:`step` starts
    the runtime lazily, and :meth:`shutdown` is idempotent and safe to
    call from ``finally`` blocks.
    """

    def __init__(
        self,
        server: ParameterServer,
        shard_specs: Sequence[WorkerShardSpec],
        num_byzantine: int = 0,
        attack: ByzantineAttack | None = None,
        attack_rng: np.random.Generator | None = None,
        network: PerfectNetwork | None = None,
        codec: GradientCodec | None = None,
        round_timeout: float = 30.0,
        join_timeout: float = 30.0,
        start_method: str | None = None,
        telemetry=None,
        faults: ResolvedFaultPlan | None = None,
    ):
        shard_specs = list(shard_specs)
        if not shard_specs:
            raise ConfigurationError("need at least one worker shard")
        expected = 0
        for spec in shard_specs:
            if spec.worker_ids[0] != expected:
                raise ConfigurationError(
                    "shard specs must partition worker ids 0..H-1 contiguously; "
                    f"shard {spec.shard_id} starts at {spec.worker_ids[0]}, "
                    f"expected {expected}"
                )
            expected = spec.worker_ids[-1] + 1
        # The shards encode their own rows (each spec carries the codec);
        # the chief's copy encodes the Byzantine block and accounts bytes.
        super().__init__(
            server,
            expected,
            num_byzantine,
            attack,
            attack_rng,
            network,
            codec,
            faults,
            telemetry,
        )
        if round_timeout <= 0:
            raise ConfigurationError(f"round_timeout must be > 0, got {round_timeout}")
        if join_timeout <= 0:
            raise ConfigurationError(f"join_timeout must be > 0, got {join_timeout}")
        if faults is not None:
            if faults.num_shards != len(shard_specs):
                raise ConfigurationError(
                    f"fault plan targets {faults.num_shards} shards but the "
                    f"cluster launches {len(shard_specs)}; configure the "
                    "experiment with num_shards matching the plan"
                )
            for spec in shard_specs:
                if tuple(faults.partition[spec.shard_id]) != tuple(spec.worker_ids):
                    raise ConfigurationError(
                        f"shard {spec.shard_id} owns workers {spec.worker_ids} "
                        f"but the fault plan's partition maps it to "
                        f"{faults.partition[spec.shard_id]}"
                    )

        self._shard_specs = shard_specs
        self._round_timeout = float(round_timeout)
        self._join_timeout = float(join_timeout)
        self._start_method = start_method
        self._started = False
        self._closed = False
        self._plane: WirePlane | None = None
        self._processes: dict[int, object] = {}
        self._commands: dict[int, object] = {}
        self._results = None
        self._departed: dict[int, str] = {}
        self._dead_rows: list[int] = []
        self._context = None
        # Full membership history: (step, shard_id, event, detail) rows.
        # Unlike ``departed`` (the *current* state, cleared on rejoin),
        # this log survives respawns, so a crash->rejoin run keeps its
        # complete fault narrative.
        self._membership_log: list[tuple[int, int, str, str]] = []
        # With a chief-side telemetry source, start() also creates the
        # shared shard->chief event queue the merge drains.
        self._telemetry_queue = None

    # ------------------------------------------------------------------
    # multiprocess read surface
    # ------------------------------------------------------------------

    @property
    def departed(self) -> dict[int, str]:
        """``shard_id -> reason`` for every *currently* departed shard.

        A shard respawned by the fault plane no longer appears here;
        :attr:`membership_log` keeps the full history.
        """
        return dict(self._departed)

    @property
    def membership_log(self) -> list[tuple[int, int, str, str]]:
        """``(step, shard_id, event, detail)`` membership history rows.

        ``event`` is ``"departed"`` or ``"respawned"``; entries survive
        rejoins, unlike :attr:`departed`.
        """
        return list(self._membership_log)

    @property
    def departed_workers(self) -> list[int]:
        """Worker ids whose rows are permanently zeroed (sorted)."""
        return list(self._dead_rows)

    @property
    def live_worker_count(self) -> int:
        """Honest workers still participating."""
        return self._num_honest - len(self._dead_rows)

    @RoundCore.telemetry.setter
    def telemetry(self, handle) -> None:
        if self._started and handle is not None and self._telemetry_queue is None:
            raise ConfigurationError(
                "telemetry must be installed before the runtime starts "
                "(shard processes are launched with the telemetry queue)"
            )
        self._telemetry = handle

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Create the wire plane, launch shard processes, await joins.

        Shards that fail to join within ``join_timeout`` (or die/error
        during startup) are departed; if *none* joins the runtime is
        torn down and a :class:`TrainingError` raised — a run where no
        honest worker ever existed is a configuration failure, not a
        degraded round.
        """
        if self._closed:
            raise TrainingError("cluster already shut down; build a new one")
        if self._started:
            return
        context = multiprocessing_context(self._start_method)
        self._context = context
        dimension = int(self._server.parameters_view.shape[0])
        self._plane = WirePlane.create(self._num_honest, dimension)
        self._results = context.Queue()
        if self._telemetry is not None:
            # One shared event queue for all shards: each shard's
            # QueueSink batches put their events in order, and the
            # chief's drain preserves per-source ordering — all the
            # merged trace's validation requires.
            self._telemetry_queue = context.Queue()
        try:
            for spec in self._shard_specs:
                if self._faults is not None:
                    # The plan owns the failure seam: translate this
                    # shard's first outage and slow events into spec
                    # fields (overriding any manually-set seam).
                    spec = replace(
                        spec, **self._faults.shard_spec_fields(spec.shard_id)
                    )
                self._launch(spec)
            self._await_joins()
        except BaseException:
            self._started = True  # so shutdown tears down the partial launch
            self.shutdown()
            raise
        self._started = True
        if len(self._departed) == len(self._shard_specs):
            reasons = "; ".join(
                f"shard {shard}: {reason}" for shard, reason in sorted(self._departed.items())
            )
            self.shutdown()
            raise TrainingError(f"no worker shard joined the runtime ({reasons})")

    def _launch(self, spec: WorkerShardSpec) -> None:
        """Spawn one shard process and register its queues."""
        commands = self._context.Queue()
        process = self._context.Process(
            target=shard_main,
            args=(
                spec,
                self._plane.spec,
                commands,
                self._results,
                self._telemetry_queue,
            ),
            daemon=True,
            name=f"repro-shard-{spec.shard_id}",
        )
        process.start()
        self._commands[spec.shard_id] = commands
        self._processes[spec.shard_id] = process

    def _await_joins(self) -> None:
        waiting = {spec.shard_id for spec in self._shard_specs}
        deadline = time.monotonic() + self._join_timeout
        while waiting:
            try:
                message = self._results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                for shard_id in list(waiting):
                    process = self._processes[shard_id]
                    if not process.is_alive():
                        waiting.discard(shard_id)
                        self._depart(
                            shard_id,
                            f"exited before joining (code {process.exitcode})",
                        )
                if time.monotonic() >= deadline:
                    for shard_id in sorted(waiting):
                        self._depart(shard_id, "failed to join in time", kill=True)
                    return
                continue
            if message[0] == "join":
                waiting.discard(message[1])
            elif message[0] == "error":
                waiting.discard(message[1])
                self._depart(message[1], f"startup error: {message[2]}")

    def shutdown(self) -> None:
        """Stop shards, reap processes, release the wire plane.

        Idempotent; after shutdown the cluster cannot step again (the
        server keeps its final parameters, so results remain readable).
        """
        if self._closed:
            return
        self._closed = True
        if not self._started and self._plane is None:
            return
        for shard_id, commands in self._commands.items():
            if shard_id not in self._departed:
                try:
                    commands.put(("stop",))
                except Exception:  # pragma: no cover - queue already broken
                    pass
        for process in self._processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        # Final merge: with every shard joined (or killed) the queue
        # feeder threads have flushed, so a single drain collects all
        # remaining shard events — including the shard.stop marks.
        self._drain_shard_events()
        if self._telemetry_queue is not None:
            self._telemetry_queue.close()
            self._telemetry_queue.cancel_join_thread()
            self._telemetry_queue = None
        for commands in self._commands.values():
            commands.close()
            commands.cancel_join_thread()
        if self._results is not None:
            self._results.close()
            self._results.cancel_join_thread()
            self._results = None
        if self._plane is not None:
            self._plane.close()
            self._plane = None
        self._commands.clear()
        self._processes.clear()

    def __enter__(self) -> "MultiprocessCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def leave(self, shard_id: int) -> None:
        """Gracefully retire a shard: stop it, then zero its rows forever.

        From the next round on the shard's workers behave like crashed
        ones (zero wire rows); the departure is recorded with reason
        ``"left"``.  Unknown or already-departed shards are rejected /
        ignored respectively.
        """
        if shard_id not in self._commands and not any(
            spec.shard_id == shard_id for spec in self._shard_specs
        ):
            raise ConfigurationError(f"unknown shard {shard_id}")
        if shard_id in self._departed:
            return
        if not self._started:
            self.start()
        commands = self._commands[shard_id]
        try:
            commands.put(("stop",))
        except Exception:  # pragma: no cover - queue already broken
            pass
        process = self._processes[shard_id]
        process.join(timeout=2.0)
        self._depart(shard_id, "left", kill=process.is_alive())

    def _depart(self, shard_id: int, reason: str, kill: bool = False) -> None:
        """Permanently remove a shard from the protocol."""
        if shard_id in self._departed:
            return
        self._departed[shard_id] = reason
        self._membership_log.append((self._step, shard_id, "departed", reason))
        spec = next(s for s in self._shard_specs if s.shard_id == shard_id)
        self._dead_rows = sorted(set(self._dead_rows) | set(spec.worker_ids))
        process = self._processes.get(shard_id)
        if process is not None and kill and process.is_alive():
            # SIGKILL, not terminate: a hung shard must never wake up and
            # write rows into a later round's wire matrix.
            process.kill()
            process.join(timeout=1.0)
        if self._telemetry is not None:
            # The legible final event for a shard that can no longer
            # speak for itself: id, round, reason, exit code.
            self._telemetry.warning(
                "shard.departed",
                f"shard {shard_id} departed at step {self._step}: {reason}",
                shard=shard_id,
                reason=reason,
                fail_step=self._step,
                exit_code=process.exitcode if process is not None else None,
                workers=list(spec.worker_ids),
            )
            self._telemetry.counter("shard.departed")

    def _respawn(self, shard_id: int) -> None:
        """Relaunch a departed shard for the fault plan's rejoin round.

        The fresh process rebuilds the shard's workers, fast-forwards
        their seed streams through rounds ``1..self._step - 1`` (see
        :func:`repro.distributed.runtime.shard._fast_forward`), and
        joins before this round's command is published.  On success the
        shard's rows rejoin the protocol; on failure the shard stays
        departed and the run degrades as usual.
        """
        assert self._faults is not None
        spec = next(s for s in self._shard_specs if s.shard_id == shard_id)
        fields = self._faults.shard_spec_fields(shard_id, start_round=self._step)
        old_commands = self._commands.pop(shard_id, None)
        if old_commands is not None:
            try:
                old_commands.close()
                old_commands.cancel_join_thread()
            except Exception:  # pragma: no cover - queue already broken
                pass
        old_process = self._processes.pop(shard_id, None)
        if old_process is not None and old_process.is_alive():  # pragma: no cover
            old_process.kill()
            old_process.join(timeout=1.0)
        self._launch(replace(spec, **fields))
        process = self._processes[shard_id]
        deadline = time.monotonic() + self._join_timeout
        joined = False
        failure = "failed to join in time"
        while time.monotonic() < deadline:
            try:
                message = self._results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if not process.is_alive():
                    failure = f"respawn died (code {process.exitcode})"
                    break
                continue
            if message[0] == "join" and message[1] == shard_id:
                joined = True
                break
            if message[0] == "error" and message[1] == shard_id:
                failure = f"respawn error: {message[2]}"
                break
            # Stray messages from other shards (none expected between
            # rounds) are dropped, matching _collect's join handling.
        if not joined:
            reason = f"respawn failed: {failure}"
            self._departed[shard_id] = reason
            self._membership_log.append((self._step, shard_id, "departed", reason))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
            if self._telemetry is not None:
                self._telemetry.warning(
                    "shard.respawn_failed",
                    f"shard {shard_id} respawn at step {self._step} failed: "
                    f"{failure}",
                    shard=shard_id,
                    reason=failure,
                )
            return
        self._departed.pop(shard_id, None)
        self._dead_rows = sorted(set(self._dead_rows) - set(spec.worker_ids))
        self._membership_log.append(
            (self._step, shard_id, "respawned", f"pid {process.pid}")
        )
        if self._telemetry is not None:
            self._telemetry.mark(
                "shard.respawned",
                shard=shard_id,
                step=self._step,
                pid=process.pid,
                workers=list(spec.worker_ids),
            )
            self._telemetry.counter("shard.respawned")

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------

    def step(self) -> StepResult:
        """Run one synchronous round and return its instrumentation.

        Identical contract to :meth:`repro.distributed.Cluster.step`;
        rounds whose shards all respond are bit-identical to it, and a
        dead/hung/departed shard degrades per the module docstring
        without ever blocking past ``round_timeout``.
        """
        if self._closed:
            raise TrainingError("cluster already shut down; build a new one")
        if not self._started:
            self.start()
        self._step += 1
        step = self._step
        if self._faults is not None:
            for shard_id in self._faults.rejoining_shards(step):
                if shard_id in self._departed:
                    self._respawn(shard_id)
        timer = self._begin_round(step)
        parameters = self._server.parameters
        plane = self._plane
        np.copyto(plane.parameters, parameters)
        pending: set[int] = set()
        for spec in self._shard_specs:
            if spec.shard_id not in self._departed:
                self._commands[spec.shard_id].put(("round", step))
                pending.add(spec.shard_id)
        timer.lap("round.publish")
        self._collect(pending)
        timer.lap("round.wait")
        self._drain_shard_events()
        timer.restart()

        submitted = np.array(plane.wire)
        clean = np.array(plane.clean)
        row_bytes = np.array(plane.wire_bytes) if self._codec is not None else None
        # A departed shard's plane rows are stale from its last live
        # round: its workers count as absent (message never produced).
        # The fault plan's outages join them — in normal fault-plane
        # operation the two sets coincide, because the plan's outages
        # fire through the spec's failure seam.  Dropped workers keep
        # their loss row: the message was sent and then lost.
        rows = self._apply_faults(
            step, submitted, clean, row_bytes, absent=frozenset(self._dead_rows)
        )
        losses = np.delete(plane.losses, rows)
        timer.lap("round.copyout")
        if not self._num_byzantine:
            # The chief's trace keeps one attack span per round, even
            # with no attack to time.
            timer.lap("round.attack")
        return self._finish_round(
            timer, parameters, submitted, clean, row_bytes, losses
        )

    def _drain_shard_events(self) -> None:
        """Merge every queued shard event into the chief's trace.

        Shard events keep their original ``src``/``seq``: drain order
        is causal per shard (one queue, FIFO feeders), which is exactly
        the ordering the trace schema validates.  A batch a shard
        flushed late simply merges on a later drain — or on the final
        drain in :meth:`shutdown`.
        """
        queue = self._telemetry_queue
        if queue is None or self._telemetry is None:
            return
        while True:
            try:
                batch = queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return
            for event in batch:
                self._telemetry.forward(event)

    def _collect(self, pending: set[int]) -> None:
        """Await ``("done", ...)`` replies; depart the dead and the late."""
        deadline = time.monotonic() + self._round_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                for shard_id in sorted(pending):
                    self._depart(shard_id, "round timed out", kill=True)
                pending.clear()
                return
            try:
                message = self._results.get(timeout=min(remaining, _POLL_SECONDS))
            except queue_module.Empty:
                # No reply in flight: a shard that is no longer alive can
                # never answer, so depart it now instead of burning the
                # whole round timeout.
                for shard_id in list(pending):
                    process = self._processes[shard_id]
                    if not process.is_alive():
                        pending.discard(shard_id)
                        self._depart(
                            shard_id, f"process died (code {process.exitcode})"
                        )
                continue
            kind = message[0]
            if kind == "done":
                _, shard_id, step = message
                if step == self._step:
                    pending.discard(shard_id)
            elif kind == "error":
                _, shard_id, reason = message
                pending.discard(shard_id)
                self._depart(shard_id, f"worker error: {reason}")
            # stray "join" messages (late joiner already departed) are dropped
