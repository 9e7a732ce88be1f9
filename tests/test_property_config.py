"""Hypothesis fuzzer over the config surface.

Every mutation of a valid cell (one or two fields, from values a JSON
file can hold) either runs, or fails with a :class:`ReproError` that
names a config field.  The same holds for the axes of a campaign
matrix.  A run that loses every honest worker or diverges is a result,
not a failure.  A damaged checkpoint (a key dropped, a value retyped, a
list resized, the bytes truncated) either resumes bit-identically or
fails with a TrainingError or ConfigurationError naming the file.  A
stored campaign record damaged the same way either loads, or the
campaign's dry run lists it as corrupt while its report and its resume
exit 2 naming the file.
"""

import contextlib
import io
import json
import os
import re
import shutil
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.runner import execute_cell, run_campaign
from repro.campaign.store import ResultStore
from repro.data.datasets import train_test_split
from repro.data.phishing import make_phishing_dataset
from repro.exceptions import ConfigurationError, ReproError, TrainingError
from repro.experiments.cli import main
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



def checkpoint_run(**overrides):
    """A momentum run under attack, with DP, a lossy network and
    accuracy evaluation (d = 7)."""
    settings = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
        test_dataset=make_phishing_dataset(seed=1, num_points=40, num_features=6),
        num_steps=4,
        n=5,
        f=1,
        gar="median",
        attack="little",
        epsilon=0.5,
        momentum=0.9,
        drop_probability=0.2,
        batch_size=5,
        eval_every=1,
        seed=3,
        checkpoint="state.json",
        checkpoint_every=2,
    )
    return Experiment(**{**settings, **overrides})


@pytest.fixture(scope="module")
def snapshot():
    """A valid round-2 checkpoint document and the uninterrupted run."""
    checkpoint_run(num_steps=2).run()
    with open("state.json", encoding="utf-8") as handle:
        document = json.load(handle)
    return document, checkpoint_run(checkpoint=None).run()


def tree_paths(node, path=()):
    """Every path into a JSON document (the root excluded)."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from tree_paths(child, path + (key,))


#: Values of another JSON kind than a number, a list, an object or a
#: string; a number is never replaced by a number (that is a new value,
#: not a damage).
RETYPES = ("x", True, None, ["x"], {"x": 1})


def damage(document, operation, path, choice):
    """``document`` after one damage at ``path``, as JSON text."""
    *parents, key = path
    node = document
    for parent in parents:
        node = node[parent]
    target = node[key]
    if operation == "drop":
        del node[key]
    elif operation == "retype":
        kinds = [value for value in RETYPES if type(value) is not type(target)]
        node[key] = kinds[choice % len(kinds)]
    elif isinstance(target, list) and target:  # "resize"
        node[key] = target[:-1] if choice % 2 else target + target[-1:]
    text = json.dumps(document)
    if operation == "truncate":
        text = text[: 1 + choice % (len(text) - 1)]
    return text


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    operation=st.sampled_from(["drop", "retype", "resize", "truncate"]),
    choice=st.integers(0, 1 << 16),
)
@example(data=None, operation="retype", choice=0)
def test_damaged_checkpoint_resumes_or_names_the_file(snapshot, data, operation, choice):
    document, reference = snapshot
    document = json.loads(json.dumps(document))
    paths = sorted(tree_paths(document), key=repr)
    path = ("cluster",) if data is None else data.draw(st.sampled_from(paths))
    with open("damaged.json", "w", encoding="utf-8") as handle:
        handle.write(damage(document, operation, path, choice))
    try:
        resumed = checkpoint_run(checkpoint="damaged.json").resume()
    except (TrainingError, ConfigurationError) as error:
        assert type(error) in (TrainingError, ConfigurationError)
        assert "damaged.json" in str(error), str(error)
        return
    assert resumed.history.losses.tobytes() == reference.history.losses.tobytes()
    assert resumed.history.accuracies.tobytes() == reference.history.accuracies.tobytes()
    assert resumed.final_parameters.tobytes() == reference.final_parameters.tobytes()


#: A two-run campaign of CELL: seed 1 trains (DP, an attack, accuracy
#: and VN tracking fill every record field); seed 2 fails and is
#: quarantined.
STORE_MATRIX = {
    "name": "fuzz-store",
    "model": {"name": "logistic", "loss_kind": "mse"},
    "data_seed": 0,
    "base": {**{key: CELL[key] for key in CELL if key != "name"}, "seeds": [1, 2]},
    "axes": {"gar": ["mda"]},
}


@pytest.fixture(scope="module")
def campaign_store():
    """The matrix file, a valid store of one run record and one
    quarantine record, and its records as ``{path: document}``."""
    matrix_path = Path("store-matrix.json").resolve()
    matrix_path.write_text(json.dumps(STORE_MATRIX))
    store = ResultStore(Path("valid-store").resolve())

    def fail_seed_two(job):
        if job.seed == 2:
            raise RuntimeError("induced failure")
        return execute_cell(job)

    matrix = ScenarioMatrix.from_file(matrix_path)
    summary = run_campaign(matrix, store, execute=fail_seed_two, retries=0)
    assert summary.executed == 2 and len(summary.quarantined) == 1
    records = {store.path_for(key): store.load(key) for key in store.keys()}
    return matrix_path, store.root, records


def campaign(*arguments):
    """``repro campaign`` with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["campaign", *map(str, arguments)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    operation=st.sampled_from(["drop", "retype", "resize", "truncate"]),
    choice=st.integers(0, 1 << 16),
)
@example(data=None, operation="drop", choice=0)
@example(data=None, operation="truncate", choice=8)
def test_damaged_store_record_loads_or_exits_2_naming_the_file(
    campaign_store, data, operation, choice
):
    matrix_path, valid_root, records = campaign_store
    root = Path("damaged-store").resolve()
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(valid_root, root)
    record_paths = sorted(records, key=str)
    if data is None:  # the run record's final_loss
        record_path = next(p for p in record_paths if "final_loss" in records[p])
        path = ("final_loss",)
    else:
        record_path = data.draw(st.sampled_from(record_paths))
        paths = sorted(tree_paths(records[record_path]), key=repr)
        path = data.draw(st.sampled_from(paths))
    document = json.loads(json.dumps(records[record_path]))
    damaged = root / record_path.relative_to(valid_root)
    damaged.write_text(damage(document, operation, path, choice))
    code, out, _ = campaign(matrix_path, "--store", root, "--dry-run")
    assert code == 0
    corrupt = "1 corrupt" in out
    for arguments in (["--report"], []):
        code, _, err = campaign(matrix_path, "--store", root, *arguments)
        if corrupt:
            assert code == 2 and str(damaged) in err, err
        else:  # loaded: the report renders; a resume runs nothing
            assert code in (0, 1), err
