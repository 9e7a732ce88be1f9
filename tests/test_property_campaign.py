"""Hypothesis property tests for matrix expansion and store semantics."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.matrix import expand_matrix
from repro.campaign.store import STORE_SCHEMA, ResultStore, cell_key
from repro.experiments.config import ExperimentConfig
from repro.metrics.history import TrainingHistory

BASE = {
    "num_steps": 4,
    "n": 5,
    "f": 2,
    "batch_size": 8,
    "eval_every": 2,
    "seeds": [1],
}

#: Axis pools: each axis name with the values it may legally take.
AXIS_POOLS = {
    "gar": ["mda", "median", "krum", "average", "trimmed-mean"],
    "epsilon": [None, 0.2, 0.5, 1.0],
    "batch_size": [4, 8, 16, 50],
    "momentum": [0.0, 0.9, 0.99],
    "learning_rate": [0.5, 1.0, 2.0],
}


@st.composite
def axes_documents(draw):
    """A random matrix document plus its exclusion bookkeeping."""
    axis_names = draw(
        st.lists(st.sampled_from(sorted(AXIS_POOLS)), min_size=1, max_size=3, unique=True)
    )
    axes = {}
    for axis in axis_names:
        pool = AXIS_POOLS[axis]
        size = draw(st.integers(1, min(3, len(pool))))
        axes[axis] = pool[:size]
    # Excludes are full axis assignments drawn from the product, so each
    # pattern matches exactly one grid cell.
    product_size = 1
    for values in axes.values():
        product_size *= len(values)
    num_excluded = draw(st.integers(0, max(0, product_size - 1)))
    excluded_indices = draw(
        st.lists(
            st.integers(0, product_size - 1),
            min_size=num_excluded,
            max_size=num_excluded,
            unique=True,
        )
    )
    excludes = []
    for flat_index in excluded_indices:
        assignment = {}
        remainder = flat_index
        for axis in reversed(list(axes)):
            remainder, position = divmod(remainder, len(axes[axis]))
            assignment[axis] = axes[axis][position]
        excludes.append(assignment)
    document = {"name": "prop", "base": dict(BASE), "axes": axes, "exclude": excludes}
    return document, product_size, len(excluded_indices)


class TestExpansionProperties:
    @given(axes_documents())
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_order_stable(self, case):
        document, _, _ = case
        first = expand_matrix(document)
        second = expand_matrix(json.loads(json.dumps(document)))  # JSON round-trip
        assert [cell.name for cell in first] == [cell.name for cell in second]
        assert [cell.config for cell in first] == [cell.config for cell in second]
        assert [cell.mode for cell in first] == [cell.mode for cell in second]

    @given(axes_documents())
    @settings(max_examples=60, deadline=None)
    def test_cell_count_is_product_minus_exclusions(self, case):
        document, product_size, num_excluded = case
        if product_size == num_excluded:
            return  # empty expansion rejected; covered by the unit suite
        assert len(expand_matrix(document)) == product_size - num_excluded

    @given(axes_documents(), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_exclude_order_never_reorders_survivors(self, case, random):
        document, product_size, num_excluded = case
        if product_size == num_excluded:
            return
        shuffled = dict(document)
        shuffled["exclude"] = list(document["exclude"])
        random.shuffle(shuffled["exclude"])
        assert [cell.name for cell in expand_matrix(document)] == [
            cell.name for cell in expand_matrix(shuffled)
        ]

    @given(axes_documents())
    @settings(max_examples=30, deadline=None)
    def test_every_cell_name_unique_and_config_valid(self, case):
        document, _, num_excluded = case
        if num_excluded == case[1]:
            return
        cells = expand_matrix(document)
        names = [cell.name for cell in cells]
        assert len(set(names)) == len(names)
        for cell in cells:
            assert isinstance(cell.config, ExperimentConfig)


#: (field, values) pairs for key-injectivity mutations — every value
#: pair within a field must map to distinct keys.
MUTATIONS = {
    "num_steps": [1, 4, 100],
    "n": [5, 7, 11],
    "f": [0, 2],
    "gar": ["mda", "median", "krum"],
    "attack": [None, "little", "empire"],
    "batch_size": [4, 8, 50],
    "g_max": [1e-2, 1e-1],
    "epsilon": [None, 0.2, 0.5],
    "delta": [1e-6, 1e-5],
    "noise_kind": ["gaussian", "laplace"],
    "learning_rate": [0.5, 2.0],
    "momentum": [0.0, 0.99],
    "momentum_at": ["worker", "server"],
    "clip_mode": ["batch", "per_example"],
    "drop_probability": [0.0, 0.1],
    "eval_every": [2, 50],
    "policy": ["sync", "semi-sync", "async-staleness"],
    "latency": [None, "constant", "lognormal"],
    "participation_rate": [1.0, 0.5],
    "participation_kind": ["poisson", "uniform"],
}


def base_config(**overrides):
    payload = dict(BASE, name="cell")
    payload["seeds"] = tuple(payload["seeds"])
    payload.update(overrides)
    return ExperimentConfig(**payload)


class TestKeyInjectivity:
    @given(
        st.sampled_from(sorted(MUTATIONS)),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_differing_configs_get_differing_keys(self, field, data):
        values = MUTATIONS[field]
        old = data.draw(st.sampled_from(values))
        new = data.draw(st.sampled_from([value for value in values if value != old]))
        assert cell_key(base_config(**{field: old}), 1) != cell_key(
            base_config(**{field: new}), 1
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_same_config_same_key(self, seed):
        assert cell_key(base_config(), seed) == cell_key(base_config(), seed)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_distinct_seeds_distinct_keys(self, first, second):
        if first == second:
            return
        assert cell_key(base_config(), first) != cell_key(base_config(), second)


class TestStoreProperties:
    @given(field=st.sampled_from(sorted(MUTATIONS)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutated_config_never_cache_hits(self, tmp_path_factory, field, data):
        values = MUTATIONS[field]
        old = data.draw(st.sampled_from(values))
        new = data.draw(st.sampled_from([value for value in values if value != old]))
        store = ResultStore(tmp_path_factory.mktemp("store"))
        store.save(cell_key(base_config(**{field: old}), 1), {"cached": True})
        assert not store.has(cell_key(base_config(**{field: new}), 1))

    @given(
        record=st.dictionaries(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
            ),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-1000, 1000),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.text(max_size=20),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_save_load_round_trip(self, tmp_path_factory, record):
        store = ResultStore(tmp_path_factory.mktemp("store"))
        key = cell_key(base_config(), 1)
        # The drawn payload rides in the smallest record the store loads.
        record = {
            "schema": STORE_SCHEMA,
            "key": key,
            "final_loss": None,
            "min_loss": None,
            "final_accuracy": None,
            "history": TrainingHistory().to_dict(),
            "privacy": None,
            "vn": None,
            "simulation": None,
            "payload": record,
        }
        store.save(key, record)
        assert store.load(key) == record
