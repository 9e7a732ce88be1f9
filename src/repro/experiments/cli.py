"""Command-line interface: regenerate paper artifacts without pytest.

Usage (installed package)::

    python -m repro table1
    python -m repro figure2 --steps 200 --seeds 2
    python -m repro figure4 --output out/fig4.txt
    python -m repro run my_experiments.json --max-workers 4
    python -m repro simulate examples/simulate_async.json --smoke
    python -m repro campaign examples/campaign_paper_grid.json --smoke
    python -m repro campaign examples/campaign_paper_grid.json --report
    python -m repro run my_experiments.json --telemetry out/trace.jsonl
    python -m repro trace summarize out/trace.jsonl
    python -m repro components
    python -m repro list

Figures print the same ASCII panels + summary tables the benchmark
harness produces; ``--steps``/``--seeds`` trim the grid for quick looks.
``run`` executes arbitrary experiment grids from a JSON config file —
a single :class:`ExperimentConfig` object, a list of them, or
``{"configs": [...], "model": {...}, "data_seed": ...}`` — with every
component resolved through the unified registry.  ``simulate`` runs the
same config format on the discrete-event asynchronous simulator
(:mod:`repro.simulation`), honouring each cell's policy / latency /
participation fields; ``campaign`` expands a scenario-matrix manifest
and runs it against a content-addressed, resumable result store
(:mod:`repro.campaign`); ``components`` lists every registry family and
its registered names.

Exit codes: 0 on success, 1 when runs completed but produced non-finite
losses (divergence), when a fault plan left no honest worker alive
(:class:`~repro.exceptions.DegradedRunError`), or when a campaign
quarantined permanently failing cells, 2 on expected errors (bad files,
invalid configs, unknown components).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.exceptions import DegradedRunError, ReproError
from repro.experiments.ascii_plot import ascii_line_plot
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURE_BATCH_SIZES, figure_configs
from repro.experiments.io import save_outcomes
from repro.experiments.runner import (
    RunOutcome,
    build_environment,
    phishing_environment,
    run_grid,
    telemetry_path_for,
)
from repro.experiments.tables import format_table1, table1_rows

__all__ = [
    "main",
    "console_main",
    "build_parser",
    "render_figure_text",
    "load_run_file",
    "render_run_summary",
    "render_simulate_summary",
]

FIGURES = tuple(FIGURE_BATCH_SIZES)  # ("figure2", "figure3", "figure4")


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures from 'DP and Byzantine "
        "Resilience in SGD: Do They Add Up?' (PODC 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available artifacts")

    table = subparsers.add_parser("table1", help="necessary conditions per GAR")
    table.add_argument("--dimension", type=int, default=69)
    table.add_argument("--batch-size", type=int, default=50)
    table.add_argument("--epsilon", type=float, default=0.2)
    table.add_argument("--delta", type=float, default=1e-6)
    table.add_argument("--n", type=int, default=11)
    table.add_argument("--f", type=int, default=5)
    table.add_argument("--output", type=Path, default=None)

    for name in FIGURES:
        figure = subparsers.add_parser(
            name, help=f"reproduce {name} (b = {FIGURE_BATCH_SIZES[name]})"
        )
        figure.add_argument("--steps", type=int, default=1000)
        figure.add_argument("--seeds", type=int, default=5, help="number of seeds (1..k)")
        figure.add_argument("--output", type=Path, default=None)

    run = subparsers.add_parser(
        "run", help="run experiment configs from a JSON file"
    )
    run.add_argument("config", type=Path, help="JSON config file (cell, list, or grid)")
    run.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="parallelise each cell's seeds over this many processes",
    )
    run.add_argument(
        "--data-seed",
        type=int,
        default=None,
        help="environment data seed (overrides the config file's; default 0)",
    )
    run.add_argument(
        "--backend",
        choices=("inprocess", "multiprocess"),
        default=None,
        help="execution backend for every cell (overrides the config "
        "file's; results are bit-identical either way)",
    )
    run.add_argument(
        "--codec",
        default=None,
        metavar="NAME",
        help="wire-compression codec for every cell (overrides the config "
        "file's \"codec\" key; see `repro components` for names)",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="fault plan for every cell: a model name (e.g. \"random\") or "
        "an inline JSON plan/spec object (overrides the config file's "
        "\"faults\" key)",
    )
    run.add_argument(
        "--save", type=Path, default=None, help="write full outcomes JSON here"
    )
    run.add_argument("--output", type=Path, default=None, help="write the summary here")
    run.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="OUT.JSONL",
        help="write one JSONL trace per run here (multi-cell/multi-seed "
        "invocations derive -{name}/-s{seed} suffixed paths; overrides "
        "the config file's \"telemetry\" key)",
    )

    simulate = subparsers.add_parser(
        "simulate",
        help="run experiment configs on the discrete-event async simulator",
    )
    simulate.add_argument(
        "config", type=Path, help="JSON config file (cell, list, or grid)"
    )
    simulate.add_argument(
        "--smoke",
        action="store_true",
        help="trim every cell to <= 5 steps and 1 seed (for CI)",
    )
    simulate.add_argument(
        "--data-seed",
        type=int,
        default=None,
        help="environment data seed (overrides the config file's; default 0)",
    )
    simulate.add_argument(
        "--output", type=Path, default=None, help="write the summary here"
    )
    simulate.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="OUT.JSONL",
        help="write one JSONL trace per simulated run here (suffixed as "
        "in `run`; overrides the config file's \"telemetry\" key)",
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="run a scenario-matrix manifest against a resumable result store",
    )
    campaign.add_argument("matrix", type=Path, help="JSON scenario-matrix manifest")
    campaign.add_argument(
        "--store",
        type=Path,
        default=Path("campaign-store"),
        help="result store directory (default ./campaign-store)",
    )
    campaign.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="shard pending (cell, seed) runs over this many processes",
    )
    campaign.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="runs claimed per pool worker at once (default: task-count "
        "heuristic; 1 restores per-run persistence granularity)",
    )
    campaign.add_argument(
        "--smoke",
        action="store_true",
        help="trim every cell to <= 5 steps and 1 seed (for CI); smoke "
        "runs use distinct store keys",
    )
    campaign.add_argument(
        "--dry-run",
        action="store_true",
        help="expand the matrix and show the cache join without running",
    )
    campaign.add_argument(
        "--report",
        action="store_true",
        help="only render the report from the store's current contents",
    )
    campaign.add_argument(
        "--output", type=Path, default=None, help="write the report here"
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=2,
        help="transient-failure re-attempts per (cell, seed) run before "
        "the run is quarantined (default 2)",
    )
    campaign.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one JSONL trace per (cell, seed) run into this "
        "directory, named by the run's store key; the path is stamped "
        "into each result record",
    )

    trace = subparsers.add_parser(
        "trace", help="inspect JSONL telemetry traces"
    )
    trace.add_argument(
        "action",
        choices=("summarize",),
        help="summarize: validate the trace and render phase timings, "
        "counters, gauges and warnings",
    )
    trace.add_argument("trace", type=Path, help="JSONL trace file to read")
    trace.add_argument(
        "--output", type=Path, default=None, help="write the summary here"
    )

    subparsers.add_parser(
        "components", help="list every registry family and its registered names"
    )
    return parser


def _figure_outcomes(name: str, steps: int, num_seeds: int) -> dict[str, RunOutcome]:
    model, train_set, test_set = phishing_environment()
    configs: list[ExperimentConfig] = figure_configs(
        batch_size=FIGURE_BATCH_SIZES[name],
        num_steps=steps,
        seeds=tuple(range(1, num_seeds + 1)),
    )
    return run_grid(configs, model, train_set, test_set, verbose=True)


def render_figure_text(name: str, outcomes: dict[str, RunOutcome]) -> str:
    """ASCII panels + summary rows for one reproduced figure.

    Cells without accuracy curves (models whose ``accuracy()`` is not
    implemented, or runs without a test set) are skipped in the panels
    and render "n/a" in the summary instead of crashing.
    """
    sections = [f"=== {name} (b = {FIGURE_BATCH_SIZES[name]}) ==="]
    for dp_label, suffix in (("without DP", "nodp"), ("with DP (eps=0.2)", "dp")):
        series = {}
        for cell_name, outcome in outcomes.items():
            stats = outcome.accuracy_stats
            if cell_name.endswith("-" + suffix) and stats is not None:
                series[cell_name.rsplit("-", 1)[0]] = (
                    stats.steps.tolist(),
                    stats.mean.tolist(),
                )
        if series:
            sections.append(
                ascii_line_plot(series, title=f"{dp_label} — test accuracy (mean)")
            )
        else:
            sections.append(f"{dp_label} — test accuracy: n/a (no curves recorded)")
    rows = [f"{'cell':<24}{'min loss':>10}{'max acc':>9}"]
    for cell_name, outcome in outcomes.items():
        stats = outcome.accuracy_stats
        max_accuracy = "n/a" if stats is None else f"{float(stats.mean.max()):.3f}"
        rows.append(
            f"{cell_name:<24}{outcome.min_loss_mean:>10.4f}{max_accuracy:>9}"
        )
    sections.append("\n".join(rows))
    return "\n\n".join(sections)


def load_run_file(
    path: Path,
) -> tuple[list[ExperimentConfig], dict | str | None, int | None, str | None]:
    """Parse a ``run`` config file.

    Returns ``(configs, model_spec, data_seed, telemetry)``.  The file
    may be one config object, a list of them, or a grid document
    ``{"configs": [...], "model": <registry spec>, "data_seed": int,
    "telemetry": "trace.jsonl"}``.  ``telemetry`` is the trace-path
    request (the ``--telemetry`` flag overrides it).
    """
    payload = json.loads(Path(path).read_text())
    model_spec: dict | str | None = None
    data_seed: int | None = None
    telemetry: str | None = None
    if isinstance(payload, list):
        entries = payload
    elif isinstance(payload, dict) and "configs" in payload:
        entries = payload["configs"]
        model_spec = payload.get("model")
        data_seed = payload.get("data_seed")
        telemetry = payload.get("telemetry")
    else:
        entries = [payload]
    return (
        [ExperimentConfig.from_dict(entry) for entry in entries],
        model_spec,
        data_seed,
        telemetry,
    )


def _parse_faults(value: str) -> str | dict:
    """A ``--faults`` value: inline JSON object, or a fault-model name."""
    text = value.strip()
    if text.startswith("{"):
        return json.loads(text)
    return text


def _resolve_telemetry(flag_value, file_value) -> str | None:
    """The explicit ``--telemetry`` flag beats the file's key."""
    if flag_value is not None:
        return str(flag_value)
    return file_value


def _resolve_data_seed(flag_value: int | None, file_value: int | None) -> int:
    """The explicit flag beats the file; the default is 0."""
    if flag_value is not None:
        return flag_value
    if file_value is not None:
        return file_value
    return 0


def _non_finite_cells(histories_by_name: dict[str, list]) -> list[str]:
    """Cells whose recorded losses went non-finite (diverged runs)."""
    failed = []
    for name, histories in histories_by_name.items():
        for history in histories:
            losses = history.losses
            if len(losses) and not bool(np.isfinite(losses).all()):
                failed.append(name)
                break
    return failed


def _report_divergence(failed: list[str]) -> int:
    """Print the divergence notice; returns the CLI exit code."""
    if not failed:
        return 0
    print(
        f"error: non-finite losses in {len(failed)} cell(s): "
        + ", ".join(failed),
        file=sys.stderr,
    )
    return 1


def render_simulate_summary(results: dict[str, list]) -> str:
    """One row per (cell, seed): policy, losses, clock, amplified budget.

    ``eps*`` is the per-worker amplified basic-composition epsilon
    (worst worker, i.e. the cohort's guarantee); "-" without DP.
    """
    rows = [
        f"{'cell':<24}{'seed':>5}{'policy':>16}{'final loss':>12}"
        f"{'final acc':>11}{'v-time':>9}{'rounds':>8}{'eps*':>9}"
    ]
    for name, cell_results in results.items():
        for result in cell_results:
            config = result.config
            accuracy = (
                f"{result.final_accuracy:.3f}"
                if len(result.history.accuracies)
                else "n/a"
            )
            if result.per_worker_privacy:
                worst = max(
                    report.basic.epsilon
                    for report in result.per_worker_privacy.values()
                )
                epsilon = f"{worst:.3g}"
            else:
                epsilon = "-"
            rows.append(
                f"{name:<24}{config['seed']:>5}{config['policy']:>16}"
                f"{result.final_loss:>12.4f}{accuracy:>11}"
                f"{result.virtual_time:>9.2f}{result.rounds:>8}{epsilon:>9}"
            )
    return "\n".join(rows)


def render_run_summary(outcomes: dict[str, RunOutcome]) -> str:
    """One row per cell: losses, accuracy ("n/a" when absent), privacy.

    Degraded multiprocess runs (shards that crashed, hung or left)
    append one ``degraded:`` line per affected seed, so the summary
    never silently presents a short-cohort run as a clean one.
    """
    rows = [
        f"{'cell':<24}{'gar':>8}{'attack':>10}{'eps':>7}"
        f"{'final loss':>12}{'min loss':>10}{'final acc':>11}"
    ]
    for name, outcome in outcomes.items():
        row = outcome.summary_row()
        epsilon = "-" if row["epsilon"] is None else f"{row['epsilon']:g}"
        accuracy = (
            "n/a"
            if row["final_accuracy"] is None
            else f"{row['final_accuracy']:.3f}"
        )
        rows.append(
            f"{name:<24}{row['gar']:>8}{row['attack']:>10}{epsilon:>7}"
            f"{row['final_loss']:>12.4f}{row['min_loss']:>10.4f}{accuracy:>11}"
        )
    for name, outcome in outcomes.items():
        for seed, departed in outcome.departures:
            details = "; ".join(
                f"shard {shard_id}: {reason}"
                for shard_id, reason in sorted(departed.items())
            )
            rows.append(f"degraded: {name} seed {seed} — {details}")
    return "\n".join(rows)


def _emit(text: str, output: Path | None) -> None:
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Expected failures (bad config files, unknown components, invalid
    options) print a one-line ``error:`` message and return 2 instead
    of a traceback.
    """
    try:
        return _dispatch(build_parser().parse_args(argv))
    except DegradedRunError as error:
        # A run that lost every honest worker is a *result* (the fault
        # plan was too aggressive), not a usage error: exit 1, like
        # divergence, so chaos harnesses can tell the two apart.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ReproError, OSError, json.JSONDecodeError, ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def console_main(argv: list[str] | None = None) -> int:
    """Process entry point (``python -m repro`` / the ``repro`` script).

    Converts ^C into the conventional exit code 130 instead of a
    traceback; :func:`main` itself lets ``KeyboardInterrupt`` propagate
    so programmatic callers (and the campaign resume tests) observe the
    interrupt.  Multiprocess runs release their shard processes and
    unlink their shared-memory segments on the way out (context
    managers on the interrupt path, atexit as backstop) — see
    :mod:`repro.distributed.runtime.wire`.
    """
    try:
        return main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _dispatch(arguments: argparse.Namespace) -> int:

    if arguments.command == "list":
        print("available artifacts: table1, " + ", ".join(FIGURES))
        return 0

    if arguments.command == "table1":
        rows = table1_rows(
            arguments.dimension,
            arguments.n,
            arguments.f,
            arguments.batch_size,
            arguments.epsilon,
            arguments.delta,
        )
        _emit(format_table1(rows, arguments.dimension, arguments.batch_size), arguments.output)
        return 0

    if arguments.command in FIGURES:
        outcomes = _figure_outcomes(arguments.command, arguments.steps, arguments.seeds)
        _emit(render_figure_text(arguments.command, outcomes), arguments.output)
        return 0

    if arguments.command == "run":
        configs, model_spec, file_data_seed, file_telemetry = load_run_file(
            arguments.config
        )
        if arguments.backend is not None:
            configs = [
                config.with_updates(backend=arguments.backend) for config in configs
            ]
        if arguments.codec is not None:
            configs = [
                config.with_updates(codec=arguments.codec) for config in configs
            ]
        if arguments.faults is not None:
            faults = _parse_faults(arguments.faults)
            configs = [
                config.with_updates(faults=faults) for config in configs
            ]
        data_seed = _resolve_data_seed(arguments.data_seed, file_data_seed)
        telemetry = _resolve_telemetry(arguments.telemetry, file_telemetry)
        model, train_set, test_set = build_environment(model_spec, data_seed)
        outcomes = run_grid(
            configs,
            model,
            train_set,
            test_set,
            verbose=True,
            max_workers=arguments.max_workers,
            telemetry=telemetry,
        )
        if arguments.save is not None:
            save_outcomes(outcomes, arguments.save)
            print(f"wrote {arguments.save}")
        _emit(render_run_summary(outcomes), arguments.output)
        return _report_divergence(
            _non_finite_cells(
                {name: outcome.histories for name, outcome in outcomes.items()}
            )
        )

    if arguments.command == "simulate":
        from repro.pipeline.builder import Experiment

        configs, model_spec, file_data_seed, file_telemetry = load_run_file(
            arguments.config
        )
        data_seed = _resolve_data_seed(arguments.data_seed, file_data_seed)
        telemetry = _resolve_telemetry(arguments.telemetry, file_telemetry)
        model, train_set, test_set = build_environment(model_spec, data_seed)
        multi_config = len(configs) > 1
        results: dict[str, list] = {}
        for config in configs:
            if config.name in results:
                raise ValueError(f"duplicate config name {config.name!r}")
            if arguments.smoke:
                config = config.smoke()
            print(f"simulating {config.describe()}")
            multi_seed = len(config.seeds) > 1
            cell_results = []
            for seed in config.seeds:
                run_telemetry = None
                if telemetry is not None:
                    run_telemetry = telemetry_path_for(
                        telemetry,
                        name=config.name if multi_config else None,
                        seed=seed if multi_seed else None,
                    )
                cell_results.append(
                    Experiment.from_config(
                        config,
                        model,
                        train_set,
                        test_set,
                        seed=seed,
                        telemetry=run_telemetry,
                    ).simulate()
                )
            results[config.name] = cell_results
        _emit(render_simulate_summary(results), arguments.output)
        return _report_divergence(
            _non_finite_cells(
                {
                    name: [result.history for result in cell_results]
                    for name, cell_results in results.items()
                }
            )
        )

    if arguments.command == "campaign":
        from repro.campaign import (
            ResultStore,
            ScenarioMatrix,
            plan_campaign,
            render_campaign_report,
            run_campaign,
        )

        matrix = ScenarioMatrix.from_file(arguments.matrix)
        store = ResultStore(arguments.store)
        if arguments.dry_run:
            plan = plan_campaign(matrix, store, smoke=arguments.smoke)
            lines = [
                f"campaign {plan.matrix.name!r}: {len(plan.pending)} pending "
                f"run(s), {len(plan.completed)} cached, {len(plan.corrupt)} "
                f"corrupt, {plan.total_runs} total"
            ]
            lines += [
                f"  miss  {job.name:<28} seed {job.seed:<11} "
                f"{job.mode:<9} {job.key[:12]}"
                for job in plan.pending
            ]
            lines += [
                f"  hit   {name:<28} seed {seed:<11} {'':<9} {key[:12]}"
                for name, seed, key in plan.completed
            ]
            lines += [
                f"  corrupt {name:<26} seed {seed:<11} {'':<9} {key[:12]}\n"
                f"        {error}"
                for name, seed, key, error in plan.corrupt
            ]
            _emit("\n".join(lines), arguments.output)
            return 0
        effective = matrix.smoke() if arguments.smoke else matrix
        if arguments.report:
            _emit(render_campaign_report(effective, store), arguments.output)
            return 0
        summary = run_campaign(
            matrix,
            store,
            max_workers=arguments.max_workers,
            chunksize=arguments.chunksize,
            smoke=arguments.smoke,
            verbose=True,
            telemetry=(
                str(arguments.telemetry) if arguments.telemetry is not None else None
            ),
            retries=arguments.retries,
        )
        print(summary.describe())
        _emit(render_campaign_report(effective, store), arguments.output)
        return 1 if summary.diverged or summary.quarantined else 0

    if arguments.command == "trace":
        from repro.telemetry import read_trace, render_trace_summary, summarize_trace

        events = read_trace(arguments.trace)
        summary = summarize_trace(events)
        _emit(render_trace_summary(summary), arguments.output)
        return 0

    if arguments.command == "components":
        from repro.pipeline.registry import REGISTRY

        lines = [
            f"{family}: {', '.join(REGISTRY.available(family))}"
            for family in REGISTRY.families()
        ]
        print("\n".join(lines))
        return 0

    raise AssertionError(f"unhandled command {arguments.command!r}")


if __name__ == "__main__":
    sys.exit(main())
