"""Atomic training checkpoints: full state, bit-identical resume.

A checkpoint captures *everything* the next round reads — model
parameters, server/optimizer momentum, per-worker momentum buffers, and
the exact ``bit_generator`` state of every live RNG stream (batch
samplers, DP noise, attack) — as one JSON document.  Python floats
round-trip through JSON exactly (``repr`` is the shortest round-trip
representation of a float64), and PCG64 state dicts are plain ints, so
a restored run replays the uninterrupted run bit for bit; the
differential suite pins this.

Stateless-by-construction components need no capture: the lossy
network and the wire codecs derive per-``(step, worker)`` streams from
a root seed, so their behaviour is a pure function of data already in
the checkpoint.

Writes are atomic (temp file + ``os.replace``, the ResultStore idiom),
so a crash mid-save leaves the previous checkpoint intact — which is
the whole point.  A damaged document comes from outside the program,
so :func:`restore_checkpoint` checks the whole tree once, before
anything is restored, and fails the way configs do: with a
:class:`TrainingError` or :class:`ConfigurationError` naming the file
and the failing field.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError, TrainingError
from repro.metrics.history import TrainingHistory
from repro.typing import is_finite_number, is_integer

__all__ = [
    "CHECKPOINT_SCHEMA",
    "capture_cluster_state",
    "load_checkpoint",
    "restore_checkpoint",
    "restore_cluster_state",
    "save_checkpoint",
]

CHECKPOINT_SCHEMA = "repro.checkpoint/1"


def _generator_state(generator: np.random.Generator) -> dict:
    """The JSON-safe ``bit_generator`` state of a live stream."""
    return generator.bit_generator.state


def _restore_generator(generator: np.random.Generator, state: dict) -> None:
    generator.bit_generator.state = state


def _vector(value) -> list | None:
    return None if value is None else np.asarray(value, dtype=np.float64).tolist()


def capture_cluster_state(cluster) -> dict:
    """Snapshot an in-process ``Cluster``'s complete mutable state.

    Friend-module access by design: the checkpoint is the one consumer
    allowed to reach into the round pipeline's private state, exactly
    like a :class:`~repro.distributed.worker.CohortPass` reads the
    workers it serves.  A momentum worker's buffers are its rows of its
    pass's velocity stack.
    """
    server = cluster._server
    optimizer = server._optimizer
    workers = []
    for worker in cluster._honest_workers:
        workers.append(
            {
                "velocity_submitted": _vector(worker._velocity_submitted),
                "velocity_clean": _vector(worker._velocity_clean),
                "sampler_rng": _generator_state(worker._sampler._rng),
                "noise_rng": _generator_state(worker._noise_rng),
            }
        )
    return {
        "step": cluster._step,
        "bytes_on_wire_total": cluster._bytes_on_wire_total,
        "server": {
            "parameters": server._parameters.tolist(),
            "step": server._step,
            "received_log": [matrix.tolist() for matrix in server._received_log],
        },
        "optimizer": {
            "velocity": _vector(optimizer._velocity),
            "step_count": optimizer._step_count,
        },
        "workers": workers,
        "attack_rng": (
            None
            if cluster._attack_rng is None
            else _generator_state(cluster._attack_rng)
        ),
    }


def restore_cluster_state(cluster, state: dict) -> None:
    """Inverse of :func:`capture_cluster_state`, in place.

    The whole of ``state`` is checked against ``cluster`` first, so a
    field that fails raises before anything is restored: a malformed one
    :class:`TrainingError`, one written by a run of another shape
    (worker count, dimension, momentum, attack)
    :class:`ConfigurationError`, each naming the field, such as
    ``cluster.workers[0].noise_rng``.  Momentum is written into the
    workers' buffers, which are views of their pass's stack (a detached
    copy would silently restart momentum from zero); a null velocity
    restores zeros.
    """
    _check_state(cluster, state)
    server = cluster._server
    optimizer = server._optimizer
    server._parameters[:] = state["server"]["parameters"]
    server._step = state["server"]["step"]
    server._received_log = [
        np.asarray(matrix, dtype=np.float64)
        for matrix in state["server"].get("received_log", ())
    ]
    optimizer._velocity = np.array(state["optimizer"]["velocity"], dtype=np.float64)
    optimizer._step_count = state["optimizer"]["step_count"]
    for worker, snapshot in zip(cluster._honest_workers, state["workers"]):
        if worker._velocity_submitted is not None:
            worker._velocity_submitted[:] = snapshot["velocity_submitted"] or 0.0
            worker._velocity_clean[:] = snapshot["velocity_clean"] or 0.0
        _restore_generator(worker._sampler._rng, snapshot["sampler_rng"])
        _restore_generator(worker._noise_rng, snapshot["noise_rng"])
    if state["attack_rng"] is not None:
        _restore_generator(cluster._attack_rng, state["attack_rng"])
    cluster._step = state["step"]
    cluster._bytes_on_wire_total = state["bytes_on_wire_total"]


def _invalid(field: str, problem: str, kind=TrainingError):
    """A failing field's error: :class:`TrainingError` for a malformed
    document, :class:`ConfigurationError` (``kind``) for one written by
    a run of another shape.  :func:`restore_checkpoint` adds the file."""
    return kind(f"field {field!r} {problem}")


def _walk(value, spec, field: str) -> None:
    """Check ``value`` against ``spec``: a dict of fields (a key ending
    in ``?`` may be absent), a one-item list for a list of like items, a
    tuple for one item each, or a leaf check ``spec(value, field)``."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise _invalid(field, f"must be an object, got {type(value).__name__}")
        for key, item in spec.items():
            name = key.rstrip("?")
            if name in value:
                _walk(value[name], item, f"{field}.{name}".lstrip("."))
            elif name == key:
                raise _invalid(f"{field}.{name}".lstrip("."), "is missing")
    elif isinstance(spec, (list, tuple)):
        if not isinstance(value, list):
            raise _invalid(field, f"must be a list, got {type(value).__name__}")
        fixed = isinstance(spec, tuple)
        if fixed and len(value) != len(spec):
            problem = f"has {len(value)} entries, this run has {len(spec)}"
            raise _invalid(field, problem, ConfigurationError)
        for index, item in enumerate(value):
            _walk(item, spec[index if fixed else 0], f"{field}[{index}]")
    else:
        spec(value, field)


def _count(value, field: str) -> None:
    if not (is_integer(value) and value >= 0):
        raise _invalid(field, f"must be a non-negative integer, got {value!r}")


def _number(value, field: str) -> None:
    if not (isinstance(value, float) or is_finite_number(value)):
        raise _invalid(field, f"must be a number, got {value!r}")


def _optional(check, present: bool):
    """``check`` when this run has the value, else a required null."""

    def optional(value, field: str) -> None:
        if (value is None) == present:
            problem = "is null, this run has one" if present else "is set, this run has none"
            raise _invalid(field, problem, ConfigurationError)
        if value is not None:
            check(value, field)

    return optional


def _state_of(generator):
    """A check that ``generator``'s bit generator takes the state as is."""

    def check(value, field: str) -> None:
        scratch = type(generator.bit_generator)(0)
        try:
            scratch.state = value
            exact = json.dumps(scratch.state, sort_keys=True) == json.dumps(
                value, sort_keys=True
            )
        except (KeyError, OverflowError, TypeError, ValueError):
            exact = False
        if not exact:
            raise _invalid(field, f"is not a {type(scratch).__name__} state")

    return check


def _check_state(cluster, state) -> None:
    """The check :func:`restore_cluster_state` runs first."""
    dimension = cluster._server._parameters.shape[0]

    def vector(value, field: str) -> None:
        _walk(value, [_number], field)
        if len(value) != dimension:
            problem = f"has {len(value)} entries, the model has {dimension}"
            raise _invalid(field, problem, ConfigurationError)

    attack = cluster._attack_rng
    spec = {
        "step": _count,
        "bytes_on_wire_total": _count,
        "server": {"parameters": vector, "step": _count, "received_log?": [[vector]]},
        "optimizer": {"velocity": vector, "step_count": _count},
        "workers": tuple(
            {
                "velocity_submitted": _optional(vector, worker._momentum > 0.0),
                "velocity_clean": _optional(vector, worker._momentum > 0.0),
                "sampler_rng": _state_of(worker._sampler._rng),
                "noise_rng": _state_of(worker._noise_rng),
            }
            for worker in cluster._honest_workers
        ),
        "attack_rng": _optional(_state_of(attack), attack is not None),
    }
    _walk(state, spec, "cluster")


def restore_checkpoint(path: str | Path, cluster) -> TrainingHistory:
    """Restore the checkpoint at ``path`` into ``cluster``; return its history.

    The whole tree is checked once, before anything is restored (the
    cluster's part by :func:`restore_cluster_state`), so a damaged
    document raises :class:`TrainingError` and one written by a run of
    another shape raises :class:`ConfigurationError`, each naming
    ``path`` and the failing field.
    """
    payload = load_checkpoint(path)
    spec = {
        "cluster": {},
        "history": {
            "loss_steps": [_count],
            "losses": [_number],
            "accuracy_steps": [_count],
            "accuracies": [_number],
            "virtual_time_steps?": [_count],
            "virtual_times?": [_number],
        },
    }
    try:
        _walk(payload, spec, "")
        history = payload["history"]
        for steps, values in (
            ("loss_steps", "losses"),
            ("accuracy_steps", "accuracies"),
            ("virtual_time_steps", "virtual_times"),
        ):
            if len(history.get(steps, ())) != len(history.get(values, ())):
                raise _invalid(f"history.{values}", f"does not pair with {steps}")
        try:
            restored = TrainingHistory.from_dict(history)
        except ValueError as error:
            raise _invalid("history", str(error)) from None
        restore_cluster_state(cluster, payload["cluster"])
    except (ConfigurationError, TrainingError) as error:
        raise type(error)(f"checkpoint {path}: {error}") from None
    return restored


def save_checkpoint(path: str | Path, payload: dict) -> None:
    """Atomically write ``payload`` (stamped with the schema) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = dict(payload)
    document["schema"] = CHECKPOINT_SCHEMA
    temp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    temp.write_text(json.dumps(document), encoding="utf-8")
    os.replace(temp, path)


def load_checkpoint(path: str | Path) -> dict:
    """Read and schema-check a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    if not path.exists():
        raise TrainingError(f"no checkpoint at {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TrainingError(f"corrupt checkpoint {path}: {error}") from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise TrainingError(
            f"checkpoint {path} has schema {schema!r}, expected "
            f"{CHECKPOINT_SCHEMA!r}"
        )
    return payload
