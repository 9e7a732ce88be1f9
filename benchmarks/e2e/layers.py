"""Which entry point of the program belongs to which layer.

Layer names are the program's module names.  :func:`install` wraps, for
one run, every entry point the run can reach, recording each replacement
in a :class:`~tracer.Patches` that undoes it.  Entry points are looked up by name
and skipped when absent, so a program that moves or deletes one still
runs under the tracer (the layer then reads 0).

On the multiprocess backend only objects that live in the chief are
wrapped: forked shard processes inherit the chief's memory, and their
spans would be lost while their cost stayed.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Patches, SpanRecorder

#: Methods wrapped on classes: (module, class, method, layer, chief-side).
CLASS_ENTRY_POINTS = (
    ("repro.pipeline.loop", "TrainingLoop", "run", "pipeline.loop", True),
    ("repro.simulation.run", "SimulationLoop", "run", "pipeline.loop", True),
    ("repro.distributed.engine", "RoundEngine", "run", "distributed.engine", True),
    ("repro.distributed.cluster", "Cluster", "step", "distributed.cluster", True),
    ("repro.distributed.runtime", "MultiprocessCluster", "step", "distributed.runtime.step", True),
    ("repro.distributed.runtime", "MultiprocessCluster", "start", "distributed.runtime.start", True),
    ("repro.distributed.runtime", "MultiprocessCluster", "shutdown", "distributed.runtime.shutdown", True),
    ("repro.simulation.engine", "ClusterSimulator", "advance", "simulation", True),
    ("repro.telemetry.sinks", "JsonlSink", "emit", "telemetry.emit", True),
    ("repro.data.batching", "BatchSampler", "sample", "data.sample", False),
    ("repro.data.batching", "BatchSampler", "sample_index_block", "data.sample", False),
)

#: Functions rebound in the modules that import them: (module, name, layer).
FUNCTION_ENTRY_POINTS = (
    ("repro.distributed.cluster", "compute_cohort", "distributed.worker.cohort"),
    ("repro.simulation.engine", "compute_cohort", "distributed.worker.cohort"),
    ("repro.distributed.cluster", "apply_wire_faults", "faults.apply"),
    ("repro.distributed.cluster", "reset_absent_momentum", "faults.apply"),
    ("repro.simulation.engine", "apply_wire_faults", "faults.apply"),
    ("repro.simulation.engine", "reset_absent_momentum", "faults.apply"),
    ("repro.distributed.runtime.cluster", "apply_wire_faults", "faults.apply"),
    ("repro.faults.checkpoint", "capture_cluster_state", "faults.checkpoint"),
    ("repro.faults.checkpoint", "save_checkpoint", "faults.checkpoint"),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _wrap(patches, recorder, layer, owner, name, on_result=None) -> None:
    if owner is not None and callable(getattr(owner, name, None)):
        patches.wrap_method(recorder, layer, owner, name, on_result)


def install(recorder: SpanRecorder, experiment, patches: Patches) -> None:
    """Wrap every entry point one run can reach, recorded in ``patches``.

    Besides spans, the result hooks count what the layers produce:
    checkpoint saves, JSONL events, runtime starts and shutdowns, encoded
    wire bytes, and aggregations whose output equals a Byzantine input
    row (the rows past the honest ones).
    """
    counts = recorder.counts
    num_honest = experiment.num_honest
    in_process = experiment.backend != "multiprocess"

    def counter(name):
        def count(args, kwargs, result):
            counts[name] += 1

        return count

    def count_byzantine_selection(args, kwargs, result):
        matrix = np.asarray(args[0] if args else kwargs["gradients"])
        matches = np.flatnonzero((matrix == result).all(axis=1))
        counts["aggregations"] += 1
        if matches.size and matches[0] >= num_honest:
            counts["byzantine_selected"] += 1

    def count_wire_bytes(args, kwargs, result):
        counts["encoded_bytes"] += int(np.asarray(result[1]).sum())

    hooks = {
        "emit": counter("telemetry_events"),
        "save_checkpoint": counter("checkpoint_saves"),
        "start": counter("runtime_starts"),
        "shutdown": counter("runtime_shutdowns"),
    }
    for module_name, class_name, method, layer, chief_side in CLASS_ENTRY_POINTS:
        if chief_side or in_process:
            owner = getattr(_module(module_name), class_name, None)
            _wrap(patches, recorder, layer, owner, method, hooks.get(method))
    for module_name, name, layer in FUNCTION_ENTRY_POINTS:
        _wrap(patches, recorder, layer, _module(module_name), name, hooks.get(name))

    server = experiment.build_server()
    _wrap(patches, recorder, "gars.aggregate", experiment.gar, "aggregate", count_byzantine_selection)
    _wrap(patches, recorder, "attacks.craft", experiment.attack, "craft")
    _wrap(patches, recorder, "distributed.network.deliver", experiment.build_network(), "deliver")
    _wrap(patches, recorder, "distributed.server", server, "step")
    _wrap(patches, recorder, "optim.step", server.optimizer, "step")
    # On the class: shard specs carry the model instance, and a spawned
    # shard must be able to unpickle it.
    _wrap(patches, recorder, "models.accuracy", type(experiment.model), "accuracy")
    if in_process:
        for name in ("loss_and_gradient_stack", "gradient_stack", "loss_stack"):
            _wrap(patches, recorder, "models.grad", experiment.model, name)
        for name in ("sample_noise_block", "privatize"):
            _wrap(patches, recorder, "privacy.noise", experiment.mechanism, name)
        _wrap(
            patches, recorder, "compression.encode",
            experiment.build_codec(), "encode_block", count_wire_bytes,
        )
