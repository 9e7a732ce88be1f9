"""Tests for the high-level train() entry point."""

import numpy as np
import pytest

from repro.data.datasets import train_test_split
from repro.data.phishing import make_phishing_dataset
from repro.distributed.trainer import build_mechanism, train
from repro.exceptions import ConfigurationError
from repro.models.logistic import LogisticRegressionModel
from repro.privacy.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.rng import generator_from_seed

# A small, fast environment shared by all trainer tests.
NUM_STEPS = 40


@pytest.fixture(scope="module")
def environment():
    dataset = make_phishing_dataset(seed=0, num_points=800, num_features=10)
    train_set, test_set = train_test_split(dataset, 600, generator_from_seed(1))
    model = LogisticRegressionModel(10, loss_kind="mse")
    return model, train_set, test_set


def run(environment, **kwargs):
    model, train_set, test_set = environment
    defaults = dict(
        model=model,
        train_dataset=train_set,
        test_dataset=test_set,
        num_steps=NUM_STEPS,
        n=7,
        f=3,
        gar="mda",
        batch_size=10,
        eval_every=20,
        seed=1,
    )
    defaults.update(kwargs)
    return train(**defaults)


class TestTrainBasics:
    def test_history_lengths(self, environment):
        result = run(environment)
        assert len(result.history.losses) == NUM_STEPS
        # Accuracy at step 0 plus every 20 steps.
        assert list(result.history.accuracy_steps) == [0, 20, 40]

    def test_final_parameters_shape(self, environment):
        model, _, _ = environment
        result = run(environment)
        assert result.final_parameters.shape == (model.dimension,)

    def test_loss_decreases_without_adversary(self, environment):
        result = run(environment, gar="average", f=0, num_steps=150)
        assert result.history.min_loss < 0.6 * result.history.losses[0]

    def test_deterministic_same_seed(self, environment):
        a = run(environment, seed=3)
        b = run(environment, seed=3)
        assert np.array_equal(a.final_parameters, b.final_parameters)
        assert np.array_equal(a.history.losses, b.history.losses)

    def test_different_seeds_differ(self, environment):
        a = run(environment, seed=3)
        b = run(environment, seed=4)
        assert not np.array_equal(a.final_parameters, b.final_parameters)

    def test_config_echo(self, environment):
        result = run(environment, attack="little", epsilon=0.5)
        assert result.config["gar"] == "mda"
        assert result.config["attack"] == "little"
        assert result.config["epsilon"] == 0.5
        assert result.config["num_byzantine"] == 3

    def test_no_test_set_no_accuracy(self, environment):
        result = run(environment, test_dataset=None)
        assert len(result.history.accuracies) == 0


class TestByzantineSemantics:
    def test_default_byzantine_count(self, environment):
        with_attack = run(environment, attack="little")
        assert with_attack.config["num_byzantine"] == 3
        without = run(environment)
        assert without.config["num_byzantine"] == 0

    def test_explicit_byzantine_count(self, environment):
        result = run(environment, attack="little", num_byzantine=1)
        assert result.config["num_byzantine"] == 1

    def test_byzantine_cannot_exceed_f(self, environment):
        with pytest.raises(ConfigurationError, match="num_byzantine"):
            run(environment, attack="little", num_byzantine=4)

    def test_average_gar_with_declared_f_allowed(self, environment):
        """The paper's averaging baseline keeps n workers, f=0 attackers."""
        result = run(environment, gar="average", f=0)
        assert result.config["gar"] == "average"

    def test_attack_object_accepted(self, environment):
        from repro.attacks import ALittleIsEnoughAttack

        result = run(environment, attack=ALittleIsEnoughAttack(factor=0.5))
        assert result.config["attack"] == "little"

    def test_attack_kwargs_with_object_rejected(self, environment):
        from repro.attacks import ALittleIsEnoughAttack

        with pytest.raises(ConfigurationError, match="attack_kwargs"):
            run(
                environment,
                attack=ALittleIsEnoughAttack(),
                attack_kwargs={"factor": 2.0},
            )

    def test_gar_instance_must_match_n_f(self, environment):
        from repro.gars import get_gar

        with pytest.raises(ConfigurationError, match="bound to"):
            run(environment, gar=get_gar("median", 9, 4))


class TestPrivacySemantics:
    def test_no_dp_no_report(self, environment):
        assert run(environment).privacy is None

    def test_dp_report_contents(self, environment):
        result = run(environment, epsilon=0.5, delta=1e-6)
        report = result.privacy
        assert report.per_step.epsilon == 0.5
        assert report.basic.epsilon == pytest.approx(0.5 * NUM_STEPS)
        assert report.rdp is not None
        assert report.rdp.epsilon < report.basic.epsilon
        assert "per-step" in report.summary()

    def test_dp_requires_g_max(self, environment):
        with pytest.raises(ConfigurationError, match="g_max"):
            run(environment, epsilon=0.5, g_max=None)

    def test_laplace_noise_kind(self, environment):
        result = run(environment, epsilon=0.5, noise_kind="laplace")
        assert result.privacy.rdp is None  # RDP tracking is Gaussian-only
        assert result.config["noise_kind"] == "laplace"

    def test_invalid_noise_kind(self, environment):
        with pytest.raises(ConfigurationError, match="noise_kind"):
            run(environment, epsilon=0.5, noise_kind="cauchy")

    def test_dp_changes_trajectory(self, environment):
        without = run(environment, seed=5)
        with_dp = run(environment, seed=5, epsilon=0.9)
        assert not np.allclose(without.final_parameters, with_dp.final_parameters)


class TestMomentumPlacement:
    def test_invalid_placement(self, environment):
        with pytest.raises(ConfigurationError, match="momentum_at"):
            run(environment, momentum_at="everywhere")

    def test_worker_and_server_differ_under_robust_gar(self, environment):
        worker_side = run(environment, momentum_at="worker", seed=6)
        server_side = run(environment, momentum_at="server", seed=6)
        assert not np.allclose(
            worker_side.final_parameters, server_side.final_parameters
        )

    def test_placement_equivalent_under_average(self, environment):
        """Averaging commutes with momentum, so the two placements give
        the same trajectory (same seeds, no DP)."""
        worker_side = run(environment, gar="average", f=0, momentum_at="worker", seed=7)
        server_side = run(environment, gar="average", f=0, momentum_at="server", seed=7)
        assert np.allclose(
            worker_side.final_parameters, server_side.final_parameters, atol=1e-10
        )


class TestMiscValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_steps": 0},
        {"eval_every": 0},
        {"num_byzantine": -1},
    ])
    def test_invalid_arguments(self, environment, kwargs):
        with pytest.raises(ConfigurationError):
            run(environment, **kwargs)

    def test_lossy_network_runs(self, environment):
        result = run(environment, drop_probability=0.2, gar="average", f=0)
        assert len(result.history.losses) == NUM_STEPS


class TestBuildMechanism:
    def test_gaussian(self):
        mechanism = build_mechanism("gaussian", 0.5, 1e-6, 0.01, 50, 69)
        assert isinstance(mechanism, GaussianMechanism)

    def test_laplace(self):
        mechanism = build_mechanism("laplace", 0.5, 1e-6, 0.01, 50, 69)
        assert isinstance(mechanism, LaplaceMechanism)

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            build_mechanism("uniform", 0.5, 1e-6, 0.01, 50, 69)
