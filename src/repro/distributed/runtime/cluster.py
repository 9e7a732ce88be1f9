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
2. send ``("round", step)`` down every live shard's pipe;
3. wait under ``round_timeout`` on those pipes and the shards' process
   sentinels together: each shard answers ``("done", step, events)``
   on its own pipe, so a shard that dies — even halfway through a
   reply — breaks only that pipe, and the chief departs it the moment
   its pipe reads end-of-file;
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

import time
from dataclasses import replace
from multiprocessing.connection import wait
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

#: Departure reasons by what a shard did instead of replying (see
#: :meth:`MultiprocessCluster._receive`): died with an exit code,
#: replied with an error, or stayed silent past the deadline.
_JOIN_FAILURES = {
    "died": "exited before joining (code {})",
    "error": "startup error: {}",
    "silent": "failed to join in time",
}
_ROUND_FAILURES = {
    "died": "process died (code {})",
    "error": "worker error: {}",
    "silent": "round timed out",
}
_RESPAWN_FAILURES = {
    "died": "respawn died (code {})",
    "error": "respawn error: {}",
    "silent": "failed to join in time",
}

#: How long a launched shard gets to join before it is departed.
_JOIN_SECONDS = 30.0

#: How long a stopping shard gets to reply and exit before it is killed.
_STOP_SECONDS = 2.0


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
        self._start_method = start_method
        self._started = False
        self._closed = False
        self._plane: WirePlane | None = None
        self._processes: dict[int, object] = {}
        # The chief's end of each shard's duplex pipe: commands go down,
        # ``(kind, value, events)`` replies come back.
        self._pipes: dict[int, object] = {}
        self._departed: dict[int, str] = {}
        self._dead_rows: list[int] = []
        self._context = None
        # Full membership history: (step, shard_id, event, detail) rows.
        # Unlike ``departed`` (the *current* state, cleared on rejoin),
        # this log survives respawns, so a crash->rejoin run keeps its
        # complete fault narrative.
        self._membership_log: list[tuple[int, int, str, str]] = []
        # Whether the shards were launched with telemetry: only then do
        # their replies carry events.
        self._observed = False

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
        if self._started and handle is not None and not self._observed:
            raise ConfigurationError(
                "telemetry must be installed before the runtime starts "
                "(shard processes are launched knowing whether to record events)"
            )
        self._telemetry = handle

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Create the wire plane, launch shard processes, await joins.

        Shards that fail to join within ``_JOIN_SECONDS`` (or die/error
        during startup) are departed; if *none* joins the runtime is
        torn down and a :class:`TrainingError` raised — a run where no
        honest worker ever existed is a configuration failure, not a
        degraded round.
        """
        if self._closed:
            raise TrainingError("cluster already shut down; build a new one")
        if self._started:
            return
        self._context = multiprocessing_context(self._start_method)
        dimension = int(self._server.parameters_view.shape[0])
        self._plane = WirePlane.create(self._num_honest, dimension)
        self._observed = self._telemetry is not None
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
            failures = self._receive(list(self._pipes), "join", _JOIN_SECONDS)
            for shard_id, (cause, detail) in sorted(failures.items()):
                self._depart(shard_id, _JOIN_FAILURES[cause].format(detail))
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
        """Spawn one shard process over a fresh duplex pipe.

        The chief closes its copy of the shard's end as soon as the
        process has it, before the next shard is launched: the shard
        then holds the only copy, so its death reads as end-of-file.
        """
        pipe, shard_end = self._context.Pipe()
        process = self._context.Process(
            target=shard_main,
            args=(spec, self._plane.spec, shard_end, self._observed),
            daemon=True,
            name=f"repro-shard-{spec.shard_id}",
        )
        try:
            process.start()
        finally:
            shard_end.close()
        self._pipes[spec.shard_id] = pipe
        self._processes[spec.shard_id] = process

    def _send(self, shard_id: int, command: tuple) -> None:
        try:
            self._pipes[shard_id].send(command)
        except OSError:
            pass  # a dead shard: its pipe reads end-of-file in _receive

    def _receive(
        self, shards, kind: str, timeout: float
    ) -> dict[int, tuple[str, object]]:
        """Wait up to ``timeout`` seconds for each of ``shards`` to reply ``kind``.

        The one place the chief waits: on the shards' pipes and process
        sentinels together.  Every reply's events are merged into the
        chief's trace as it arrives, keeping their ``src`` and ``seq``.
        Returns the shards that did not reply ``kind``, each as
        ``(cause, detail)``: ``("died", exit_code)``, ``("error",
        message)`` or ``("silent", None)``.  A ready shard's pipe is read
        before its death is believed, so a reply sent just before exit
        still counts; end-of-file or a torn frame is a death.
        """
        waiting = set(shards)
        failures: dict[int, tuple[str, object]] = {}
        deadline = time.monotonic() + timeout
        while waiting:
            handles = {}
            for shard_id in waiting:
                handles[self._pipes[shard_id]] = shard_id
                handles[self._processes[shard_id].sentinel] = shard_id
            ready = wait(list(handles), max(0.0, deadline - time.monotonic()))
            if not ready:
                failures.update((shard_id, ("silent", None)) for shard_id in waiting)
                break
            for shard_id in {handles[handle] for handle in ready}:
                waiting.discard(shard_id)
                try:
                    reply, value, events = self._pipes[shard_id].recv()
                except (EOFError, OSError):
                    process = self._processes[shard_id]
                    process.join(timeout=1.0)
                    failures[shard_id] = ("died", process.exitcode)
                    continue
                if self._telemetry is not None:
                    for event in events:
                        self._telemetry.forward(event)
                if reply != kind:
                    failures[shard_id] = ("error", value)
        return failures

    def _stop(self, shards) -> None:
        """Ask ``shards`` to stop; merge the last events they reply with."""
        for shard_id in shards:
            self._send(shard_id, ("stop",))
        self._receive(shards, "stopped", _STOP_SECONDS)

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
        self._stop([shard for shard in self._pipes if shard not in self._departed])
        for process in self._processes.values():
            process.join(timeout=_STOP_SECONDS)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        for pipe in self._pipes.values():
            pipe.close()
        if self._plane is not None:
            self._plane.close()
            self._plane = None
        self._pipes.clear()
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
        if not any(spec.shard_id == shard_id for spec in self._shard_specs):
            raise ConfigurationError(f"unknown shard {shard_id}")
        if shard_id in self._departed:
            return
        if not self._started:
            self.start()
        self._stop([shard_id])
        self._processes[shard_id].join(timeout=_STOP_SECONDS)
        self._depart(shard_id, "left")

    def _depart(self, shard_id: int, reason: str) -> None:
        """Permanently remove a shard from the protocol.

        A shard still alive is SIGKILLed, not terminated: a hung shard
        must never wake up and write rows into a later round's wire
        matrix.
        """
        if shard_id in self._departed:
            return
        self._departed[shard_id] = reason
        self._membership_log.append((self._step, shard_id, "departed", reason))
        spec = next(s for s in self._shard_specs if s.shard_id == shard_id)
        self._dead_rows = sorted(set(self._dead_rows) | set(spec.worker_ids))
        process = self._processes[shard_id]
        if process.is_alive():
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
                exit_code=process.exitcode,
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
        self._pipes.pop(shard_id).close()
        self._launch(replace(spec, **fields))
        process = self._processes[shard_id]
        failure = self._receive([shard_id], "join", _JOIN_SECONDS).get(shard_id)
        if failure is not None:
            cause, detail = failure
            failure = _RESPAWN_FAILURES[cause].format(detail)
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
        live = [shard for shard in self._pipes if shard not in self._departed]
        for shard_id in live:
            self._send(shard_id, ("round", step))
        timer.lap("round.publish")
        failures = self._receive(live, "done", self._round_timeout)
        for shard_id, (cause, detail) in sorted(failures.items()):
            self._depart(shard_id, _ROUND_FAILURES[cause].format(detail))
        timer.lap("round.wait")

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
