"""Content-addressed, resumable result store.

Every (cell config, seed, mode, environment) combination maps to one
key — the SHA-256 of its canonical JSON identity — and the store is a
directory of one JSON record per key.  The consequences fall out of the
addressing scheme:

* re-running a campaign skips every key already present (warm cache);
* a campaign killed mid-run resumes exactly where it stopped, because
  each record is written atomically the moment its run finishes;
* *any* change to a field that affects the numbers — hyperparameters,
  GAR, attack, DP budget, mode, data seed, model spec — changes the key
  and provably misses the cache.

Two fields are deliberately **excluded** from the key: the cell ``name``
(presentation only — renaming a cell must not re-run it) and the
``seeds`` list (each record is one seed's run; the seed itself is part
of the key, the list a cell happens to bundle is not).  Everything else
in :meth:`ExperimentConfig.to_dict` is included verbatim.

Records are plain JSON.  Python's ``json`` round-trips finite floats
exactly (``repr``-based), so a loaded history is bit-identical to the
run that produced it — which is what lets the differential suite
compare store contents against live runs.

The writer is atomic, so a damaged record was damaged from outside the
program.  :meth:`ResultStore.load` checks every record once, against the
fields the campaign runner and report read, and raises a
:class:`ConfigurationError` naming the record's key, its path and the
failing field; such a record is no cache hit, and nothing re-runs it
silently (delete the file to re-run its cell).
"""

from __future__ import annotations

import hashlib
import json
import os
import reprlib
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.metrics.history import TrainingHistory
from repro.typing import is_finite_number, is_integer

__all__ = ["STORE_SCHEMA", "ResultStore", "cell_key"]

#: Bump when the record layout or key derivation changes; old stores
#: are then rejected instead of silently mixing incompatible records.
STORE_SCHEMA = "repro.campaign-store/1"


def _canonical_config_payload(config: ExperimentConfig) -> dict:
    """The config's identity payload: everything numerically meaningful.

    ``name`` and ``seeds`` are dropped (see module docstring); so are
    the execution-backend fields (``backend``/``num_shards``/
    ``round_timeout``): the multiprocess backend is bit-identical to
    in-process, so *where* a cell ran is not part of its numerical
    identity — and keys minted before those fields existed stay valid.
    The wire codec (``codec``/``codec_kwargs``) is the opposite case: a
    lossy codec changes what the server aggregates, so it stays in the
    identity — while the *measured* byte counts live only in records.
    The ``*_kwargs`` pair lists are sorted by key so that two specs
    spelling the same kwargs in a different order collide, as they
    should.
    """
    payload = config.to_dict()
    payload.pop("name")
    payload.pop("seeds")
    for backend_field in ("backend", "num_shards", "round_timeout"):
        payload.pop(backend_field, None)
    # Checkpointing is run infrastructure (never part of the numbers);
    # the fault plan IS numerically meaningful, but only when set —
    # popping falsy values keeps every pre-fault-plane key stable.
    for infra_field in ("checkpoint", "checkpoint_every"):
        payload.pop(infra_field, None)
    for fault_field in ("faults", "faults_kwargs"):
        if not payload.get(fault_field):
            payload.pop(fault_field, None)
    for kwargs_field in (
        "attack_kwargs",
        "policy_kwargs",
        "latency_kwargs",
        "codec_kwargs",
        "faults_kwargs",
    ):
        if kwargs_field in payload:
            payload[kwargs_field] = sorted(
                payload[kwargs_field], key=lambda pair: pair[0]
            )
    return payload


def cell_key(
    config: ExperimentConfig,
    seed: int,
    *,
    mode: str = "train",
    data_seed: int = 0,
    model_spec: dict | str | None = None,
) -> str:
    """The content address of one run: config + seed + mode + environment.

    Deterministic across processes and platforms: the identity document
    is serialised with sorted keys and no whitespace before hashing.
    """
    identity = {
        "schema": STORE_SCHEMA,
        "config": _canonical_config_payload(config),
        "seed": int(seed),
        "mode": mode,
        "data_seed": int(data_seed),
        "model": model_spec,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _number(value) -> bool:
    """A JSON number: a diverged run stores NaN or an infinity."""
    return isinstance(value, float) or is_finite_number(value)


def _nullable(test):
    return lambda value: value is None or test(value)


def _object_with(name: str, test):
    """An object whose field ``name`` passes ``test``."""
    return lambda value: isinstance(value, dict) and name in value and test(value[name])


def _history(value) -> bool:
    """A training history; an unpaired list raises ``from_dict``'s
    ``ValueError``, which names it."""
    try:
        TrainingHistory.from_dict(value)
    except (AttributeError, KeyError, TypeError):
        return False
    return True


#: ``field: (what it must be, test)`` for the fields of a quarantine
#: record and of a run record that the campaign runner and report read.
_QUARANTINE_FIELDS = {
    "quarantined": ("true", lambda value: value is True),
    "error": (
        "an object with a string 'type' and 'message'",
        lambda value: isinstance(value, dict)
        and all(isinstance(value.get(name), str) for name in ("type", "message")),
    ),
    "attempts": ("a positive integer", lambda value: is_integer(value) and value >= 1),
}
_RUN_FIELDS = {
    "final_loss": ("a number or null", _nullable(_number)),
    "min_loss": ("a number or null", _nullable(_number)),
    "final_accuracy": ("a number or null", _nullable(_number)),
    "history": ("a training history", _history),
    "privacy": (
        "null or an object whose 'basic' list starts with a number",
        _nullable(
            _object_with(
                "basic",
                lambda basic: isinstance(basic, list) and len(basic) > 0 and _number(basic[0]),
            )
        ),
    ),
    "vn": (
        "null or an object with a number 'median_submitted'",
        _nullable(_object_with("median_submitted", _number)),
    ),
    "simulation": (
        "null or an object with a number 'virtual_time'",
        _nullable(_object_with("virtual_time", _number)),
    ),
}


def _check_record(record, key: str) -> None:
    """Raise ``ValueError`` naming the first field the campaign runner
    or report could not read from ``record`` as ``key``'s record."""
    if not isinstance(record, dict):
        raise ValueError(f"must be a JSON object, got {type(record).__name__}")
    fields = {
        "schema": (repr(STORE_SCHEMA), lambda value: value == STORE_SCHEMA),
        "key": ("the key it is stored under", lambda value: value == key),
        **(_QUARANTINE_FIELDS if "quarantined" in record else _RUN_FIELDS),
    }
    for field, (expected, test) in fields.items():
        if field not in record:
            raise ValueError(f"field {field!r} is missing")
        try:
            passed = test(record[field])
        except ValueError as error:  # a test that says what is wrong
            raise ValueError(f"field {field!r} {error}") from None
        if not passed:
            got = reprlib.repr(record[field])
            raise ValueError(f"field {field!r} must be {expected}, got {got}")


class ResultStore:
    """A directory of content-addressed campaign records.

    Layout::

        <root>/meta.json             {"schema": "repro.campaign-store/1"}
        <root>/records/<k[:2]>/<k>.json

    Records are sharded by the first two key characters to keep
    directories small on large campaigns.  Writes are atomic (temp file
    + ``os.replace``), so a killed campaign never leaves a torn record —
    a key either resolves to a complete run or is missing.
    """

    def __init__(self, root: str | Path):
        self._root = Path(root)
        self._records = self._root / "records"
        self._meta_path = self._root / "meta.json"
        if self._meta_path.exists():
            try:
                meta = json.loads(self._meta_path.read_text())
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"corrupt store metadata at {self._meta_path}: {error}"
                ) from None
            if meta.get("schema") != STORE_SCHEMA:
                raise ConfigurationError(
                    f"store at {self._root} has schema {meta.get('schema')!r}; "
                    f"this build expects {STORE_SCHEMA!r}"
                )

    def _ensure_layout(self) -> None:
        # Created on first write, not on open: read-only consumers
        # (dry runs, reports) pointed at a typo'd path see an empty
        # store instead of leaving directories behind.
        if not self._meta_path.exists():
            self._records.mkdir(parents=True, exist_ok=True)
            self._meta_path.write_text(json.dumps({"schema": STORE_SCHEMA}) + "\n")

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def path_for(self, key: str) -> Path:
        """Where ``key``'s record lives (whether or not it exists yet)."""
        if len(key) < 3:
            raise ConfigurationError(f"malformed store key {key!r}")
        return self._records / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        """Whether a complete record exists for ``key``."""
        return self.path_for(key).exists()

    __contains__ = has

    def load(self, key: str) -> dict:
        """The record stored under ``key`` (KeyError if absent).

        A record that is not JSON, or that the campaign runner or report
        could not read, raises :class:`ConfigurationError` naming the
        key, the path and the failing field.
        """
        path = self.path_for(key)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            _check_record(record, key)
        except FileNotFoundError:
            raise KeyError(key) from None
        except ValueError as error:  # also bad JSON and bad UTF-8
            raise ConfigurationError(
                f"corrupt store record {path} (key {key}): {error}; "
                "delete the file to re-run its cell"
            ) from None
        return record

    def save(self, key: str, record: dict) -> Path:
        """Atomically write ``record`` under ``key``; returns its path.

        The temp file lives in the record's final directory, so
        ``os.replace`` is a same-filesystem rename: concurrent or
        interrupted writers can never expose a partial record.
        """
        self._ensure_layout()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.parent / f".{key}.tmp.{os.getpid()}"
        temporary.write_text(json.dumps(record, sort_keys=True))
        os.replace(temporary, path)
        return path

    def keys(self) -> list[str]:
        """Every stored key, sorted (stable across filesystems)."""
        if not self._records.exists():
            return []
        return sorted(path.stem for path in self._records.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self._root)!r}, records={len(self)})"
