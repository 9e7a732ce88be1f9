"""Unit tests for the content-addressed result store (repro.campaign.store)."""

import dataclasses
import json

import pytest

from repro.campaign.store import STORE_SCHEMA, ResultStore, cell_key
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.metrics.history import TrainingHistory


def config(**overrides):
    payload = {
        "name": "cell",
        "num_steps": 10,
        "n": 5,
        "f": 2,
        "gar": "mda",
        "batch_size": 8,
        "seeds": (1, 2),
    }
    payload.update(overrides)
    return ExperimentConfig(**payload)


def run_record(key):
    """The smallest run record the store loads: the fields the campaign
    runner and report read."""
    return {
        "schema": STORE_SCHEMA,
        "key": key,
        "final_loss": None,
        "min_loss": None,
        "final_accuracy": None,
        "history": TrainingHistory().to_dict(),
        "privacy": None,
        "vn": None,
        "simulation": None,
    }


class TestCellKey:
    def test_deterministic(self):
        assert cell_key(config(), 1) == cell_key(config(), 1)

    def test_name_and_seed_list_are_presentation_only(self):
        assert cell_key(config(name="a"), 1) == cell_key(config(name="b"), 1)
        assert cell_key(config(seeds=(1,)), 1) == cell_key(config(seeds=(1, 2, 3)), 1)

    def test_seed_mode_environment_are_identity(self):
        base = cell_key(config(), 1)
        assert cell_key(config(), 2) != base
        assert cell_key(config(), 1, mode="simulate") != base
        assert cell_key(config(), 1, data_seed=1) != base
        assert cell_key(config(), 1, model_spec={"name": "linear"}) != base

    @pytest.mark.parametrize(
        "change",
        [
            {"num_steps": 11},
            {"batch_size": 9},
            {"gar": "median"},
            {"attack": "little"},
            {"epsilon": 0.2},
            {"learning_rate": 1.5},
            {"momentum": 0.5},
            {"policy": "semi-sync"},
            {"participation_rate": 0.5},
            {"drop_probability": 0.1},
        ],
    )
    def test_any_field_change_misses(self, change):
        assert cell_key(config(**change), 1) != cell_key(config(), 1)

    def test_kwargs_order_insensitive(self):
        first = config(attack="little", attack_kwargs=(("z", 1.5), ("factor", 2.0)))
        second = config(attack="little", attack_kwargs=(("factor", 2.0), ("z", 1.5)))
        assert cell_key(first, 1) == cell_key(second, 1)

    def test_int_float_distinction(self):
        # JSON canonical form distinguishes 2 from 2.0: a changed config
        # representation misses rather than silently aliasing.
        assert cell_key(config(g_max=1), 1) != cell_key(config(g_max=1.0), 1)


class TestResultStore:
    def test_round_trips_records_exactly(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = cell_key(config(), 1)
        record = {
            **run_record(key),
            "final_loss": 0.1 + 0.2,  # not exactly representable: repr round-trip
            "values": [1e-323, 3.141592653589793, -0.0],
            "nested": {"accuracy": None},
        }
        store.save(key, record)
        assert store.load(key) == record
        assert store.load(key)["final_loss"] == 0.30000000000000004

    def test_has_and_contains(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = cell_key(config(), 1)
        assert not store.has(key)
        assert key not in store
        store.save(key, {"ok": True})
        assert store.has(key)
        assert key in store

    def test_missing_key_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyError):
            store.load(cell_key(config(), 1))

    def test_mutated_config_never_hits(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save(cell_key(config(), 1), {"ok": True})
        for change in ({"num_steps": 11}, {"epsilon": 0.3}, {"gar": "krum"}):
            assert not store.has(cell_key(config(**change), 1))

    def test_keys_sorted_and_len(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        keys = [cell_key(config(), seed) for seed in (1, 2, 3)]
        for key in keys:
            store.save(key, {"seed": key})
        assert store.keys() == sorted(keys)
        assert len(store) == 3

    def test_no_temp_files_left(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save(cell_key(config(), 1), {"ok": True})
        leftovers = [
            path for path in (tmp_path / "store").rglob("*") if ".tmp." in path.name
        ]
        assert leftovers == []

    def test_reopen_existing_store(self, tmp_path):
        root = tmp_path / "store"
        key = cell_key(config(), 1)
        ResultStore(root).save(key, {"ok": True})
        assert ResultStore(root).has(key)

    def test_schema_mismatch_rejected(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).save(cell_key(config(), 1), {"ok": True})
        (root / "meta.json").write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ConfigurationError, match="schema"):
            ResultStore(root)

    def test_corrupt_meta_rejected(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).save(cell_key(config(), 1), {"ok": True})
        (root / "meta.json").write_text("{broken")
        with pytest.raises(ConfigurationError, match="corrupt"):
            ResultStore(root)

    def test_read_only_use_creates_nothing(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        assert not store.has(cell_key(config(), 1))
        assert store.keys() == []
        assert len(store) == 0
        assert not root.exists()  # created on first write, not on open

    def test_first_write_creates_layout(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).save(cell_key(config(), 1), {"ok": True})
        meta = json.loads((root / "meta.json").read_text())
        assert meta == {"schema": STORE_SCHEMA}

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="malformed"):
            store.path_for("ab")

    def test_key_covers_every_config_field(self):
        """A new ExperimentConfig field must be visibly in or out of the key.

        The canonical payload drops exactly ``name``, ``seeds`` and the
        execution-backend fields (bit-identical backends share a cell);
        if a field is ever added to the config, this test forces a
        decision (and a STORE_SCHEMA bump if it joins the identity).
        """
        from repro.campaign.store import _canonical_config_payload

        payload = _canonical_config_payload(config())
        field_names = {field.name for field in dataclasses.fields(ExperimentConfig)}
        excluded = {
            "name", "seeds", "backend", "num_shards", "round_timeout",
            # Checkpointing is run infrastructure: always out of the key.
            "checkpoint", "checkpoint_every",
            # The fault plan is numerically meaningful but enters the
            # key only when set, so pre-fault-plane keys stay stable.
            "faults", "faults_kwargs",
        }
        assert set(payload) == field_names - excluded
        assert STORE_SCHEMA == "repro.campaign-store/1"

    def test_faults_enter_the_key_only_when_set(self):
        from repro.campaign.store import _canonical_config_payload

        faulty = config().with_updates(
            faults="random", faults_kwargs=(("crash_rate", 0.1),)
        )
        payload = _canonical_config_payload(faulty)
        assert payload["faults"] == "random"
        assert payload["faults_kwargs"] == [["crash_rate", 0.1]]
        assert cell_key(faulty, 1) != cell_key(config(), 1)
        # Checkpointing never changes a key.
        checkpointed = config().with_updates(
            checkpoint="state.json", checkpoint_every=5
        )
        assert cell_key(checkpointed, 1) == cell_key(config(), 1)
