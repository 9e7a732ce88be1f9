"""Property-style tests for ExperimentConfig JSON round-tripping."""

import json
import random

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import PAPER_SEEDS, ExperimentConfig

GARS = ("mda", "krum", "median", "average", "trimmed-mean")
ATTACKS = (None, "little", "empire", "signflip")
NOISE_KINDS = ("gaussian", "laplace")
DISTRIBUTIONS = ("shared", "iid-shards", "label-shards")


def random_config(rng: random.Random) -> ExperimentConfig:
    """One random-but-valid config cell."""
    attack = rng.choice(ATTACKS)
    epsilon = rng.choice((None, 0.1, 0.2, 1.0))
    attack_kwargs = ()
    if attack in ("little", "empire") and rng.random() < 0.5:
        attack_kwargs = (("factor", rng.choice((0.5, 1.1, 1.5))),)
    return ExperimentConfig(
        name=f"cell-{rng.randrange(10**6)}",
        num_steps=rng.randrange(1, 2000),
        n=rng.randrange(3, 30),
        f=rng.randrange(0, 3),
        num_byzantine=rng.choice((None, 0)),
        gar=rng.choice(GARS),
        attack=attack,
        attack_kwargs=attack_kwargs,
        batch_size=rng.randrange(1, 500),
        g_max=rng.choice((1e-2, 0.5, 2.0)),
        epsilon=epsilon,
        delta=rng.choice((1e-6, 1e-5)),
        noise_kind=rng.choice(NOISE_KINDS),
        learning_rate=rng.choice((0.5, 2.0)),
        momentum=rng.choice((0.0, 0.9, 0.99)),
        momentum_at=rng.choice(("worker", "server")),
        clip_mode=rng.choice(("batch", "per_example")),
        drop_probability=rng.choice((0.0, 0.1)),
        eval_every=rng.randrange(1, 100),
        seeds=tuple(sorted(rng.sample(range(1, 50), rng.randrange(1, 6)))),
    )


@pytest.mark.parametrize("case_seed", range(50))
def test_json_round_trip_is_identity(case_seed):
    config = random_config(random.Random(case_seed))
    payload = json.loads(json.dumps(config.to_dict()))
    assert ExperimentConfig.from_dict(payload) == config


def test_to_dict_is_json_serialisable():
    config = ExperimentConfig(
        name="paper", attack="little", attack_kwargs=(("factor", 1.5),)
    )
    text = json.dumps(config.to_dict())
    assert '"factor"' in text
    assert json.loads(text)["seeds"] == list(PAPER_SEEDS)


def test_from_dict_accepts_mapping_attack_kwargs():
    config = ExperimentConfig.from_dict(
        {"name": "cell", "attack": "little", "attack_kwargs": {"factor": 2.0}}
    )
    assert config.attack_kwargs == (("factor", 2.0),)
    assert config.experiment_kwargs(1)["attack_kwargs"] == {"factor": 2.0}


def test_from_dict_accepts_null_attack_kwargs():
    config = ExperimentConfig.from_dict(
        {"name": "cell", "attack": "little", "attack_kwargs": None}
    )
    assert config.attack_kwargs == ()
    assert config.experiment_kwargs(1)["attack_kwargs"] is None


def test_from_dict_defaults_match_constructor():
    assert ExperimentConfig.from_dict({"name": "x"}) == ExperimentConfig(name="x")


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown config fields"):
        ExperimentConfig.from_dict({"name": "x", "bogus": 1})


def test_from_dict_validates_like_constructor():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"name": "x", "num_steps": 0})
