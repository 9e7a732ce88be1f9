"""Declarative scenario matrices: one JSON document, many experiment cells.

The paper's evidence is a grid — GAR x attack x privacy noise x
(alpha, f, n) — and PR 3 added three more axes (policy, latency,
participation).  A *scenario matrix* describes such a grid declaratively:

* ``base`` — fields shared by every cell (any
  :class:`repro.experiments.config.ExperimentConfig` field, plus the
  reserved ``mode``);
* ``axes`` — ``{field: [value, ...]}``; the cartesian product of the
  axis values, in the order the document lists them (last axis varies
  fastest), generates the grid cells;
* ``exclude`` — partial cell dicts; a grid cell matching *every* pair
  of any exclude entry is dropped;
* ``include`` — explicit extra cells (full field dicts merged over
  ``base``) appended after the grid, exempt from ``exclude``;
* ``mode`` — ``"train"`` (synchronous :meth:`Experiment.run`) or
  ``"simulate"`` (event-driven :meth:`Experiment.simulate`), settable
  globally, per axis, or per cell;
* ``seeds`` — either inherited from ``base``/cells as an explicit list,
  or derived per cell: ``{"count": k, "root": r}`` draws ``k`` distinct
  seeds per cell from the :class:`repro.rng.SeedTree` stream at
  ``("campaign", cell_name)``, so every cell gets independent,
  reproducible seeds from one campaign root.

Expansion is a pure function of the document: the same matrix always
yields the same cells in the same order (the property suite enforces
determinism, order stability and the product-minus-exclusions count).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.rng import SeedTree

__all__ = [
    "CAMPAIGN_MODES",
    "CampaignCell",
    "ScenarioMatrix",
    "derive_cell_seeds",
    "expand_matrix",
]

#: How a cell is executed: the synchronous loop or the event simulator.
CAMPAIGN_MODES = ("train", "simulate")

#: Top-level keys a matrix document may carry.
_MATRIX_KEYS = frozenset(
    {
        "name",
        "base",
        "axes",
        "exclude",
        "include",
        "mode",
        "name_template",
        "seeds",
        "model",
        "data_seed",
        "report",
    }
)


@dataclass(frozen=True)
class CampaignCell:
    """One concrete cell of a campaign: a config plus its execution mode."""

    config: ExperimentConfig
    mode: str = "train"

    def __post_init__(self) -> None:
        if self.mode not in CAMPAIGN_MODES:
            raise ConfigurationError(
                f"cell mode must be one of {CAMPAIGN_MODES}, got {self.mode!r}"
            )

    @property
    def name(self) -> str:
        """The cell's unique name (the config's)."""
        return self.config.name


def derive_cell_seeds(root_seed: int, cell_name: str, count: int) -> tuple[int, ...]:
    """``count`` distinct per-cell seeds from the campaign's seed tree.

    Seeds are drawn from the stream at ``("campaign", cell_name)`` under
    ``root_seed``, so they are deterministic in (root, cell name, count)
    and independent across cells.  A shorter prefix of a longer draw is
    stable: asking for 3 seeds returns the first 3 of the 5-seed answer.
    """
    if count < 1:
        raise ConfigurationError(f"seed count must be >= 1, got {count}")
    generator = SeedTree(root_seed).generator("campaign", cell_name)
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < count:
        candidate = int(generator.integers(0, 2**31))
        if candidate not in seen:
            seen.add(candidate)
            seeds.append(candidate)
    return tuple(seeds)


def _format_value(value) -> str:
    """Human-readable axis value for auto-generated cell names."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _render_name(template: str | None, assignment: dict, merged: dict) -> str:
    """The cell name: template over the merged fields, else the axis tuple."""
    if template is None:
        return ",".join(
            f"{axis}={_format_value(value)}" for axis, value in assignment.items()
        )
    values = {key: _format_value(value) for key, value in merged.items()}
    try:
        return template.format(**values)
    except (KeyError, IndexError) as error:
        raise ConfigurationError(
            f"name_template {template!r} references unknown field {error}"
        ) from None


def _matches(candidate: dict, pattern: dict) -> bool:
    """Whether ``candidate`` carries every ``pattern`` key at its value."""
    return all(
        key in candidate and candidate[key] == value
        for key, value in pattern.items()
    )


def _build_cell(
    merged: dict,
    *,
    name: str,
    default_mode: str,
    seed_rule: dict | None,
) -> CampaignCell:
    """Turn one merged field dict into a validated :class:`CampaignCell`."""
    payload = dict(merged)
    payload.setdefault("name", name)
    mode = payload.pop("mode", default_mode)
    if mode not in CAMPAIGN_MODES:
        raise ConfigurationError(
            f"cell {payload['name']!r}: mode must be one of {CAMPAIGN_MODES}, "
            f"got {mode!r}"
        )
    if "seeds" not in payload and seed_rule is not None:
        payload["seeds"] = derive_cell_seeds(
            seed_rule["root"], payload["name"], seed_rule["count"]
        )
    return CampaignCell(config=ExperimentConfig.from_dict(payload), mode=mode)


def _parse_seed_rule(spec) -> dict | None:
    """Normalise the matrix-level ``seeds`` entry.

    ``None`` means "cells must carry their own seeds (or use the config
    default)"; a dict ``{"count": k, "root": r}`` derives per-cell seeds
    (non-bool integers, ``k >= 1`` and ``r >= 0``).  A plain list is
    shorthand for putting ``seeds`` in ``base``, unchanged, so the
    cell config validates it.
    """
    if spec is None:
        return None
    if isinstance(spec, dict):
        unknown = set(spec) - {"count", "root"}
        if unknown:
            raise ConfigurationError(
                f"seeds rule has unknown keys: {', '.join(sorted(unknown))}"
            )
        rule = {"count": spec.get("count"), "root": spec.get("root", 0)}
        for key, low in (("count", 1), ("root", 0)):
            value = rule[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigurationError(
                    f"seeds rule field {key!r} must be an integer >= {low}, "
                    f"got {value!r}"
                )
        return rule
    if isinstance(spec, (list, tuple)):
        return {"explicit": list(spec)}
    raise ConfigurationError(
        f"matrix seeds must be a list or {{'count', 'root'}} rule, got {spec!r}"
    )


def expand_matrix(document: dict) -> list[CampaignCell]:
    """Expand a matrix document into its ordered list of concrete cells.

    Order is deterministic: the cartesian product of the axes in
    document order (last axis varies fastest), then the ``include``
    cells in document order.  Duplicate cell names are an error.
    """
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"scenario matrix must be a JSON object, got {type(document).__name__}"
        )
    unknown = set(document) - _MATRIX_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown matrix keys: {', '.join(sorted(unknown))}"
        )
    base = dict(document.get("base", {}))
    axes = document.get("axes", {})
    if not isinstance(axes, dict):
        raise ConfigurationError("matrix axes must be an object of value lists")
    for axis, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigurationError(
                f"axis {axis!r} must be a non-empty list of values"
            )
    excludes = document.get("exclude", [])
    if not isinstance(excludes, (list, tuple)) or any(
        not isinstance(pattern, dict) for pattern in excludes
    ):
        raise ConfigurationError(
            "matrix exclude must be a list of partial cell objects"
        )
    includes = document.get("include", [])
    if not isinstance(includes, (list, tuple)):
        raise ConfigurationError("matrix include must be a list of cell objects")
    default_mode = document.get("mode", "train")
    template = document.get("name_template")
    seed_rule = _parse_seed_rule(document.get("seeds"))
    if seed_rule is not None and "explicit" in seed_rule:
        base.setdefault("seeds", seed_rule["explicit"])
        seed_rule = None

    cells: list[CampaignCell] = []
    names: set[str] = set()
    axis_names = list(axes)
    # No axes means no grid — an include-only matrix, not a single
    # empty-product cell.
    combinations = product(*(axes[axis] for axis in axis_names)) if axis_names else ()
    for combination in combinations:
        assignment = dict(zip(axis_names, combination))
        merged = {**base, **assignment}
        if any(_matches(merged, pattern) for pattern in excludes):
            continue
        name = merged.get("name") or _render_name(template, assignment, merged)
        merged.pop("name", None)
        cell = _build_cell(
            merged, name=name, default_mode=default_mode, seed_rule=seed_rule
        )
        if cell.name in names:
            raise ConfigurationError(
                f"matrix expansion produced duplicate cell name {cell.name!r} "
                "(add distinguishing axes to name_template)"
            )
        names.add(cell.name)
        cells.append(cell)
    for index, extra in enumerate(includes):
        if not isinstance(extra, dict):
            raise ConfigurationError(
                f"include entries must be objects, got {type(extra).__name__}"
            )
        merged = {**base, **extra}
        name = merged.pop("name", None)
        if name is None:
            raise ConfigurationError(f"include entry {index} needs a 'name'")
        cell = _build_cell(
            merged, name=name, default_mode=default_mode, seed_rule=seed_rule
        )
        if cell.name in names:
            raise ConfigurationError(
                f"include entry {index} duplicates cell name {cell.name!r}"
            )
        names.add(cell.name)
        cells.append(cell)
    if not cells:
        raise ConfigurationError("matrix expands to zero cells")
    return cells


@dataclass(frozen=True)
class ScenarioMatrix:
    """A parsed campaign document: cells plus the shared environment."""

    name: str
    cells: tuple[CampaignCell, ...]
    model_spec: dict | str | None = None
    data_seed: int = 0
    report_spec: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign name must be non-empty")
        if not self.cells:
            raise ConfigurationError("campaign needs at least one cell")

    @classmethod
    def from_dict(cls, document: dict) -> "ScenarioMatrix":
        """Parse and expand a matrix document."""
        cells = expand_matrix(document)
        report_spec = document.get("report", {})
        if not isinstance(report_spec, dict):
            raise ConfigurationError("matrix report spec must be an object")
        return cls(
            name=document.get("name", "campaign"),
            cells=tuple(cells),
            model_spec=document.get("model"),
            data_seed=int(document.get("data_seed", 0)),
            report_spec=dict(report_spec),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioMatrix":
        """Load a matrix document from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def smoke(self) -> "ScenarioMatrix":
        """A seconds-scale variant: <= 5 steps and one seed per cell.

        Smoke cells hash to *different* store keys than their full-size
        originals (the trimmed fields are part of the key), so a smoke
        pass never pollutes a real campaign's cache.
        """
        cells = tuple(
            CampaignCell(
                config=cell.config.with_updates(
                    num_steps=min(cell.config.num_steps, 5),
                    eval_every=min(cell.config.eval_every, 5),
                    seeds=cell.config.seeds[:1],
                ),
                mode=cell.mode,
            )
            for cell in self.cells
        )
        return ScenarioMatrix(
            name=self.name,
            cells=cells,
            model_spec=self.model_spec,
            data_seed=self.data_seed,
            report_spec=self.report_spec,
        )

    @property
    def total_runs(self) -> int:
        """Number of (cell, seed) runs the campaign describes."""
        return sum(len(cell.config.seeds) for cell in self.cells)

    def axis_values(self, field_name: str) -> list:
        """Distinct values of one config field across cells, in cell order."""
        values: list = []
        for cell in self.cells:
            value = getattr(cell.config, field_name, None)
            if value not in values:
                values.append(value)
        return values

    def __len__(self) -> int:
        return len(self.cells)
