"""Hypothesis fuzzer over the config surface.

Every mutation of a valid cell (one or two fields, from values a JSON
file can hold) either runs, or fails with a :class:`ReproError` that
names a config field.  The same holds for the axes of a campaign
matrix.  A run that loses every honest worker or diverges is a result,
not a failure.
"""

import os
import re
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.matrix import ScenarioMatrix
from repro.data.datasets import train_test_split
from repro.data.phishing import make_phishing_dataset
from repro.exceptions import ReproError, TrainingError
from repro.experiments.config import FAMILIES, ExperimentConfig
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline import REGISTRY, Experiment
from repro.rng import generator_from_seed

# Mutated cells overflow and diverge on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: A tiny valid cell: 2 in-process rounds of MDA under attack, with DP.
CELL = {
    "name": "fuzz",
    "num_steps": 2,
    "n": 4,
    "f": 1,
    "gar": "mda",
    "attack": "little",
    "batch_size": 5,
    "epsilon": 0.5,
    "eval_every": 1,
    "seeds": [1],
}

FIELDS = sorted(field.name for field in fields(ExperimentConfig))

#: Every registered name (so most land in the wrong family), a fault
#: model, and the empty string.
NAMES = sorted(
    {name for family in REGISTRY.families() for name in REGISTRY.available(family)}
    | {"random", ""}
)

#: Words that name a config field: every field, and the registry family
#: a component field resolves through.  "name" counts only as ``field
#: 'name'`` or ``axis 'name'``, since component specs have a "name" key.
FIELD_WORDS = re.compile(
    r"\b(%s)\b|(field|axis) 'name'"
    % "|".join(sorted((set(FIELDS) - {"name"}) | set(FAMILIES.values())))
)

scalars = st.one_of(
    st.integers(-2, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(NAMES),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(
        st.sampled_from(
            ["name", "k", "fraction", "factor", "crash_rate", "n", "rng", "seed", "x"]
        ),
        scalars,
        max_size=3,
    ),
)
mutations = st.lists(
    st.sampled_from(FIELDS), min_size=1, max_size=2, unique=True
).flatmap(lambda names: st.fixed_dictionaries({name: values for name in names}))


@pytest.fixture(scope="module")
def environment():
    dataset = make_phishing_dataset(seed=0, num_points=120, num_features=6)
    train_set, test_set = train_test_split(dataset, 90, generator_from_seed(1))
    return LogisticRegressionModel(6, loss_kind="mse"), train_set, test_set


@pytest.fixture(scope="module", autouse=True)
def temporary_directory(tmp_path_factory):
    """A mutated ``checkpoint`` names a file: write it in a temporary directory."""
    previous = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("fuzz"))
    yield
    os.chdir(previous)


def assert_names_a_field(error: ReproError) -> None:
    assert FIELD_WORDS.search(str(error)), f"{type(error).__name__}: {error}"


@settings(max_examples=150, deadline=None)
@given(mutation=mutations)
@example(mutation={"codec": 7})
@example(mutation={"attack": ["little"]})
@example(mutation={"codec": {"name": "top-k", "k": "x"}})
@example(mutation={"codec": "top-k", "codec_kwargs": {"k": "x"}})
@example(mutation={"attack_kwargs": 5})
@example(mutation={"attack_kwargs": {"name": "empire"}})
@example(mutation={"policy": "asyncc"})
@example(mutation={"participation_kind": 1})
@example(mutation={"faults": "x"})
@example(mutation={"faults": {"x": 1}})
@example(mutation={"faults": {"crash_rate": "x"}})
@example(mutation={"gar": {"x": 1}})
@example(mutation={"gar": {"name": "mda", "n": 7}})
@example(mutation={"codec": {"name": "top-k", "rng": 3}})
@example(mutation={"f": 4})
@example(mutation={"checkpoint": ""})
@example(mutation={"epsilon": 1e-300})
@example(mutation={"epsilon": 1e-300, "attack": None})
def test_mutated_cell_runs_or_names_a_field(environment, mutation):
    try:
        config = ExperimentConfig.from_dict({**CELL, **mutation})
        assert config.backend == "inprocess"  # no pool value names another backend
        experiment = Experiment.from_config(config, *environment)
    except ReproError as error:
        assert_names_a_field(error)
        return
    try:
        result = experiment.run()
    except TrainingError:  # every honest worker departed, or it diverged
        return
    except ReproError as error:
        if "non-finite" not in str(error):  # a GAR refusing diverged rows
            assert_names_a_field(error)
        return
    assert len(result.history.losses) == config.num_steps


@settings(max_examples=40, deadline=None)
@given(
    axes=st.dictionaries(
        st.sampled_from(FIELDS),
        st.one_of(values, st.lists(values, min_size=1, max_size=2)),
        min_size=1,
        max_size=2,
    )
)
@example(axes={"gar": ["mdaa"]})
@example(axes={"codec": [7]})
@example(axes={"n": 4})
def test_mutated_matrix_expands_or_names_a_field(environment, axes):
    base = {key: value for key, value in CELL.items() if key != "name"}
    document = {"name": "fuzz", "base": base, "axes": axes}
    try:
        matrix = ScenarioMatrix.from_dict(document)
        for cell in matrix.cells:
            Experiment.from_config(cell.config, *environment)
    except ReproError as error:
        assert_names_a_field(error)

