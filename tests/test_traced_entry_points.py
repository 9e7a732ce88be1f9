"""The end-to-end benchmark's tracer still finds the round's layers.

``benchmarks/e2e/layers.py`` attributes the cohort and fault layers by
rebinding ``compute_cohort``, ``apply_wire_faults`` and
``reset_absent_momentum`` in the modules it lists.  A round that calls
them through any other name runs untraced, and those per-layer metrics
silently read 0.  Each backend's round must therefore reach both layers
through the listed names.
"""

import collections
import importlib
from pathlib import Path

import pytest

from repro.data.phishing import make_phishing_dataset
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment

BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

CRASH_REJOIN = {
    "events": [
        {"kind": "crash", "round": 2, "shard": 1},
        {"kind": "rejoin", "round": 3, "shard": 1},
        {"kind": "drop_round", "round": 3, "worker": 0},
    ],
    "num_shards": 2,
}


@pytest.fixture
def layer_calls(monkeypatch):
    """Count calls per layer through every name the tracer rebinds."""
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    layers = importlib.import_module("layers")
    calls = collections.Counter()
    for module_name, name, layer in layers.FUNCTION_ENTRY_POINTS:
        module = importlib.import_module(module_name)
        function = getattr(module, name, None)
        if not callable(function):
            continue

        def counted(*args, _function=function, _layer=layer, **kwargs):
            calls[_layer] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def run(backend, simulate=False):
    experiment = Experiment(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
        test_dataset=make_phishing_dataset(seed=1, num_points=40, num_features=6),
        num_steps=4,
        n=6,
        f=2,
        gar="mda",
        attack="little",
        batch_size=10,
        eval_every=2,
        seed=5,
        faults=CRASH_REJOIN,
        num_shards=2,
        backend=backend,
    )
    return experiment.simulate() if simulate else experiment.run()


@pytest.mark.parametrize(
    "backend, simulate, layers",
    [
        ("inprocess", False, {"distributed.worker.cohort", "faults.apply"}),
        ("inprocess", True, {"distributed.worker.cohort", "faults.apply"}),
        # The multiprocess cohort runs in shard processes, out of reach.
        ("multiprocess", False, {"faults.apply"}),
    ],
    ids=["per-round", "simulator", "multiprocess"],
)
def test_round_reaches_traced_layers(layer_calls, backend, simulate, layers):
    run(backend, simulate)
    assert {layer for layer in layers if layer_calls[layer] > 0} == layers
