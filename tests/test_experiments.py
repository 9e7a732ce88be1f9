"""Tests for the experiment harness: configs, runner, figures, tables, IO."""

import numpy as np
import pytest

from repro.data.datasets import train_test_split
from repro.data.phishing import make_phishing_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.config import PAPER_SEEDS, ExperimentConfig
from repro.experiments.figures import (
    FIGURE_BATCH_SIZES,
    figure2_configs,
    figure3_configs,
    figure4_configs,
    figure_configs,
)
from repro.experiments.io import load_outcomes, outcome_to_dict, save_outcomes
from repro.experiments.runner import RunOutcome, phishing_environment, run_config, run_grid
from repro.experiments.tables import format_table1, table1_rows
from repro.models.logistic import LogisticRegressionModel
from repro.rng import generator_from_seed


@pytest.fixture(scope="module")
def tiny_environment():
    dataset = make_phishing_dataset(seed=0, num_points=400, num_features=8)
    train_set, test_set = train_test_split(dataset, 300, generator_from_seed(1))
    model = LogisticRegressionModel(8, loss_kind="mse")
    return model, train_set, test_set


def tiny_config(name="cell", **overrides):
    defaults = dict(
        name=name,
        num_steps=20,
        n=7,
        f=3,
        gar="mda",
        batch_size=8,
        eval_every=10,
        seeds=(1, 2),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_defaults_match_paper(self):
        config = ExperimentConfig(name="paper")
        assert config.n == 11
        assert config.f == 5
        assert config.batch_size == 50
        assert config.g_max == 1e-2
        assert config.delta == 1e-6
        assert config.learning_rate == 2.0
        assert config.momentum == 0.99
        assert config.num_steps == 1000
        assert config.seeds == PAPER_SEEDS == (1, 2, 3, 4, 5)

    def test_flags(self):
        assert not tiny_config().uses_dp
        assert tiny_config(epsilon=0.2).uses_dp
        assert not tiny_config().under_attack
        assert tiny_config(attack="little").under_attack
        assert not tiny_config(attack="little", num_byzantine=0).under_attack

    def test_train_kwargs_contents(self):
        config = tiny_config(attack="little", attack_kwargs=(("factor", 2.0),))
        kwargs = config.experiment_kwargs(seed=3)
        assert kwargs["seed"] == 3
        assert kwargs["attack_kwargs"] == {"factor": 2.0}
        assert kwargs["gar"] == "mda"

    def test_with_updates(self):
        config = tiny_config().with_updates(batch_size=99)
        assert config.batch_size == 99
        assert config.name == "cell"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_config(name="")
        with pytest.raises(ConfigurationError):
            tiny_config(seeds=())
        with pytest.raises(ConfigurationError):
            tiny_config(num_steps=0)

    def test_describe(self):
        text = tiny_config(epsilon=0.2).describe()
        assert "eps=0.2" in text and "mda" in text


class TestRunner:
    def test_phishing_environment_shapes(self):
        model, train_set, test_set = phishing_environment()
        assert model.dimension == 69
        assert train_set.num_points == 8400
        assert test_set.num_points == 2655

    def test_run_config_aggregates_seeds(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        outcome = run_config(tiny_config(), model, train_set, test_set)
        assert len(outcome.histories) == 2
        assert len(outcome.loss_stats.mean) == 20
        assert outcome.accuracy_stats is not None
        assert outcome.final_loss_mean > 0

    def test_run_config_without_test_set(self, tiny_environment):
        model, train_set, _ = tiny_environment
        outcome = run_config(tiny_config(), model, train_set, None)
        assert outcome.accuracy_stats is None
        assert outcome.final_accuracy_mean is None

    def test_summary_row(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        outcome = run_config(tiny_config(epsilon=0.3), model, train_set, test_set)
        row = outcome.summary_row()
        assert row["name"] == "cell"
        assert row["epsilon"] == 0.3
        assert row["attack"] == "none"

    def test_run_grid(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        configs = [tiny_config("a"), tiny_config("b", epsilon=0.5)]
        outcomes = run_grid(configs, model, train_set, test_set)
        assert set(outcomes) == {"a", "b"}

    def test_run_grid_rejects_duplicates(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        with pytest.raises(ValueError, match="duplicate"):
            run_grid([tiny_config("a"), tiny_config("a")], model, train_set, test_set)

    def test_privacy_report_present_for_dp(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        outcome = run_config(tiny_config(epsilon=0.5), model, train_set, test_set)
        assert outcome.privacy is not None
        assert outcome.privacy.per_step.epsilon == 0.5


class TestFigureConfigs:
    def test_batch_sizes(self):
        assert FIGURE_BATCH_SIZES == {"figure2": 50, "figure3": 10, "figure4": 500}
        assert all(c.batch_size == 50 for c in figure2_configs())
        assert all(c.batch_size == 10 for c in figure3_configs())
        assert all(c.batch_size == 500 for c in figure4_configs())

    def test_eight_cells(self):
        configs = figure2_configs()
        assert len(configs) == 8
        names = {c.name for c in configs}
        assert "mda-little-dp" in names and "avg-noattack-nodp" in names

    def test_dp_split(self):
        configs = figure2_configs()
        dp = [c for c in configs if c.uses_dp]
        nodp = [c for c in configs if not c.uses_dp]
        assert len(dp) == len(nodp) == 4
        assert all(c.epsilon == 0.2 for c in dp)

    def test_attack_cells_use_mda_f5(self):
        for config in figure2_configs():
            if config.attack is not None:
                assert config.gar == "mda"
                assert config.f == 5

    def test_average_cells_have_no_attack(self):
        for config in figure2_configs():
            if config.gar == "average":
                assert config.attack is None
                assert config.f == 0

    def test_overrides_flow_through(self):
        configs = figure_configs(batch_size=25, num_steps=10, seeds=(1,))
        assert all(c.num_steps == 10 and c.seeds == (1,) for c in configs)


class TestTable1:
    def test_rows_cover_seven_gars(self):
        rows = table1_rows(dimension=69, n=11, f=5, batch_size=50, epsilon=0.2, delta=1e-6)
        assert len(rows) == 7
        names = [row.gar for row in rows]
        assert "mda" in names and "krum" in names and "phocas" in names

    def test_krum_not_applicable_at_paper_nf(self):
        rows = {r.gar: r for r in table1_rows(69, 11, 5, 50, 0.2, 1e-6)}
        assert not rows["krum"].applicable
        assert not rows["bulyan"].applicable
        assert rows["mda"].applicable

    def test_paper_configuration_infeasible(self):
        rows = {r.gar: r for r in table1_rows(69, 11, 5, 50, 0.2, 1e-6)}
        assert rows["mda"].feasible_at_configuration is False

    def test_fraction_vs_batch_bounds(self):
        rows = {r.gar: r for r in table1_rows(69, 11, 4, 50, 0.2, 1e-6)}
        assert rows["mda"].max_byzantine_fraction is not None
        assert rows["mda"].min_batch_size is None
        assert rows["krum"].min_batch_size is not None
        assert rows["krum"].max_byzantine_fraction is None

    def test_format_renders(self):
        rows = table1_rows(69, 11, 5, 50, 0.2, 1e-6)
        text = format_table1(rows, 69, 50)
        assert "Table 1" in text
        assert "mda" in text


class TestIO:
    def test_round_trip(self, tiny_environment, tmp_path):
        model, train_set, test_set = tiny_environment
        outcome = run_config(tiny_config(epsilon=0.4), model, train_set, test_set)
        path = tmp_path / "results.json"
        save_outcomes({"cell": outcome}, path)
        restored = load_outcomes(path)["cell"]
        assert restored.config == outcome.config
        assert np.allclose(restored.loss_stats.mean, outcome.loss_stats.mean)
        assert np.allclose(restored.accuracy_stats.mean, outcome.accuracy_stats.mean)
        assert len(restored.histories) == len(outcome.histories)

    def test_dict_shape(self, tiny_environment):
        model, train_set, test_set = tiny_environment
        outcome = run_config(tiny_config(), model, train_set, None)
        payload = outcome_to_dict(outcome)
        assert payload["accuracy_stats"] is None
        assert payload["privacy"] is None
        assert len(payload["histories"]) == 2
