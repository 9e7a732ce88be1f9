"""Differential suite: multiprocess backend ≡ in-process engine, bit for bit.

Three layers of evidence, strongest last:

1. **per-round**: identically-seeded in-process and multiprocess
   clusters are stepped side by side and every round's submitted
   matrix, clean matrix, aggregate and post-step parameters must be
   *exactly* equal — across GAR × attack × DP × momentum and a lossy
   network;
2. **end-to-end**: ``Experiment.run`` under both backends produces
   equal loss curves, accuracy curves and final parameters (this also
   pins the chief-side honest-loss routing);
3. **golden replay**: the committed ``tests/golden/traces.json`` —
   recorded by the in-process engine — replays bit-identically through
   the multiprocess backend, tying the new runtime to the repository's
   long-lived reference traces.

Equality is ``tolist()`` equality of float64 values, i.e. equality of
bits; no tolerances anywhere.
"""

import json

import pytest

from repro.campaign.store import cell_key
from repro.data.phishing import make_phishing_dataset
from repro.experiments.config import ExperimentConfig
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment

from tests.test_golden_traces import CASES as GOLDEN_CASES
from tests.test_golden_traces import GOLDEN_PATH

#: name -> Experiment overrides.  krum/average × DP on/off × momentum
#: on/off (the issue's floor), plus laplace noise, server momentum and
#: a lossy network.
DIFFERENTIAL_CELLS = {
    "krum-little-dp-momentum": dict(gar="krum", attack="little", f=3, epsilon=0.5),
    "krum-little-dp-nomomentum": dict(
        gar="krum", attack="little", f=3, epsilon=0.5, momentum=0.0
    ),
    "krum-little-nodp-momentum": dict(gar="krum", attack="little", f=3),
    "krum-little-nodp-nomomentum": dict(
        gar="krum", attack="little", f=3, momentum=0.0
    ),
    "average-dp-momentum": dict(gar="average", f=0, epsilon=0.5),
    "average-nodp-nomomentum": dict(gar="average", f=0, momentum=0.0),
    "krum-signflip-laplace": dict(
        gar="krum", attack="signflip", f=3, epsilon=1.0, noise_kind="laplace"
    ),
    "krum-little-dp-servermomentum": dict(
        gar="krum", attack="little", f=3, epsilon=0.5, momentum_at="server"
    ),
    "krum-little-dp-lossy": dict(
        gar="krum", attack="little", f=3, epsilon=0.5, drop_probability=0.3
    ),
}


def make_pair(overrides, num_shards=3):
    """Identically-seeded (in-process, multiprocess) experiments."""

    def build(**backend):
        settings = dict(
            model=LogisticRegressionModel(6),
            train_dataset=make_phishing_dataset(
                seed=0, num_points=150, num_features=6
            ),
            test_dataset=make_phishing_dataset(seed=1, num_points=40, num_features=6),
            num_steps=5,
            n=9,
            batch_size=10,
            eval_every=2,
            seed=11,
        )
        settings.update(overrides)
        settings.update(backend)
        return Experiment(**settings)

    return build(), build(backend="multiprocess", num_shards=num_shards)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CELLS))
def test_rounds_bit_identical(name):
    inprocess, multiprocess = make_pair(DIFFERENTIAL_CELLS[name])
    reference = inprocess.build_cluster()
    with multiprocess.build_multiprocess_cluster() as runtime:
        for _ in range(5):
            expected = reference.step()
            actual = runtime.step()
            assert actual.step == expected.step
            assert (
                actual.honest_submitted.tolist()
                == expected.honest_submitted.tolist()
            )
            assert actual.honest_clean.tolist() == expected.honest_clean.tolist()
            assert (
                actual.honest_losses.tolist() == expected.honest_losses.tolist()
            )
            if expected.byzantine_gradient is None:
                assert actual.byzantine_gradient is None
            else:
                assert (
                    actual.byzantine_gradient.tolist()
                    == expected.byzantine_gradient.tolist()
                )
            assert actual.aggregated.tolist() == expected.aggregated.tolist()
            assert runtime.parameters.tolist() == reference.parameters.tolist()


@pytest.mark.parametrize(
    "name", ["krum-little-dp-momentum", "average-dp-momentum", "krum-little-dp-lossy"]
)
def test_experiment_run_bit_identical(name):
    inprocess, multiprocess = make_pair(DIFFERENTIAL_CELLS[name])
    expected = inprocess.run()
    actual = multiprocess.run()
    assert actual.history.loss_steps.tolist() == expected.history.loss_steps.tolist()
    assert actual.history.losses.tolist() == expected.history.losses.tolist()
    assert (
        actual.history.accuracies.tolist() == expected.history.accuracies.tolist()
    )
    assert (
        actual.final_parameters.tolist() == expected.final_parameters.tolist()
    )


def test_process_per_worker_matches_sharded():
    """The shard layout is invisible: 1, 3 or H shards, same bits."""
    overrides = DIFFERENTIAL_CELLS["krum-little-dp-momentum"]
    parameters = []
    for num_shards in (1, 3, None):  # None = process-per-worker
        _, multiprocess = make_pair(overrides, num_shards=num_shards)
        parameters.append(multiprocess.run().final_parameters.tolist())
    assert parameters[0] == parameters[1] == parameters[2]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_traces_replay_through_multiprocess_backend(name):
    """The committed in-process golden traces hold under the new backend."""
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    experiment = Experiment(
        model=LogisticRegressionModel(10),
        train_dataset=make_phishing_dataset(seed=0, num_points=240, num_features=10),
        test_dataset=make_phishing_dataset(seed=1, num_points=60, num_features=10),
        num_steps=6,
        batch_size=10,
        eval_every=3,
        seed=7,
        backend="multiprocess",
        num_shards=3,
        **GOLDEN_CASES[name],
    )
    result = experiment.run()
    assert [int(s) for s in result.history.loss_steps] == golden["loss_steps"]
    assert result.history.losses.tolist() == golden["losses"]
    assert (
        [int(s) for s in result.history.accuracy_steps] == golden["accuracy_steps"]
    )
    assert result.history.accuracies.tolist() == golden["accuracies"]
    assert result.final_parameters.tolist() == golden["final_parameters"]


def test_backend_fields_do_not_change_campaign_keys():
    """Bit-identity means the store must treat backends as one cell."""
    config = ExperimentConfig(
        name="cell", num_steps=5, n=9, f=3, gar="krum", attack="little", seeds=(1,)
    )
    multiprocess = config.with_updates(
        backend="multiprocess", num_shards=3, round_timeout=5.0
    )
    assert cell_key(config, seed=1) == cell_key(multiprocess, seed=1)
    assert "backend=multiprocess" in multiprocess.describe()
