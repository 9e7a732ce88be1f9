"""High-level training entry point.

:func:`train` runs the whole pipeline — data sharding, workers, DP
mechanism, attack, GAR, server — from plain keyword arguments, and
returns a :class:`TrainingResult` with the paper's metrics (per-step
training loss over honest batches, periodic test accuracy) plus an
end-to-end privacy report.

It is ``Experiment(**kwargs).run()``: it accepts every keyword of
:class:`repro.pipeline.builder.Experiment`, whose staged builder is the
place to go for anything one call cannot express.

Defaults reproduce the paper's experimental setup (Section 5.1):
n = 11 workers, f = 5 Byzantine, MDA, batch size 50, G_max = 1e-2,
learning rate 2, momentum 0.99, 1000 steps, delta = 1e-6.
"""

from __future__ import annotations

from repro.pipeline.registry import build_mechanism
from repro.pipeline.results import PrivacyReport, TrainingResult

__all__ = ["train", "TrainingResult", "PrivacyReport", "build_mechanism"]


def train(**kwargs) -> TrainingResult:
    """Run one distributed training experiment end to end.

    Parameters mirror the paper's Section 5.1; see the module docstring
    for the defaults.  Key semantics:

    * ``f`` is the GAR's declared tolerance; ``num_byzantine`` is how
      many workers actually attack (default: ``f`` when an attack is
      given, else 0).  The paper's averaging runs correspond to
      ``gar="average"``, ``attack=None``.
    * ``epsilon=None`` disables DP entirely; otherwise every honest
      worker runs the ``noise_kind`` mechanism with budget
      ``(epsilon, delta)`` per step.
    * ``momentum_at`` places the momentum buffer at each ``"worker"``
      (the default — the distributed-momentum scheme of El-Mhamdi et
      al. 2021 [16], whose attacks the paper reuses; worker momentum is
      what lets MDA resist them in the no-DP columns of Figs. 2-4) or
      at the ``"server"`` (classical heavy-ball on the aggregate,
      provided as an ablation).
    * ``data_distribution`` controls worker data: ``"shared"`` (the
      paper's model — every worker samples the full training set),
      ``"iid-shards"`` (disjoint random shards) or ``"label-shards"``
      (pathological non-IID label-sorted shards — an extension beyond
      the paper's i.i.d. assumption).
    * ``telemetry`` enables the observability plane: pass a
      :class:`repro.telemetry.Telemetry` instance or a path (the run
      then writes a schema-versioned JSONL trace there).  Telemetry
      never draws randomness — results are bit-identical either way.
    * ``codec`` inserts a wire-compression codec (``"identity"``,
      ``"top-k"``, ``"sign"``, ``"qsgd"``, ``"discrete-gaussian"``)
      between worker submission and server aggregation; the result's
      ``bytes_on_wire`` then reports the exact encoded traffic.
    * ``gar``, ``attack`` and the other component arguments also accept
      ``{"name": ..., **kwargs}`` registry specs, and ``callbacks``
      (:class:`repro.pipeline.Callback` instances) hook into the
      training loop — see :class:`repro.pipeline.Experiment`.

    Returns
    -------
    TrainingResult
        Metrics history, final parameters, privacy report (``None``
        when DP is off) and an echo of the configuration.
    """
    from repro.pipeline.builder import Experiment

    return Experiment(**kwargs).run()
