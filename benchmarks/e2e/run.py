"""End-to-end benchmark of the repro training system.

One workload, in this process::

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Every workload, each in a fresh child process, written to one file::

    python3 benchmarks/e2e/run.py --seed S [--repeats N] [--trace] [--out FILE]

Run from the repository root; the program is imported from ``src/``.
A single-workload run prints every metric with its unit, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
``attempted``/``failed`` count rounds; every round of a run that
raises, diverges or fails a check is failed.  See README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_VERSION = 1
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Where traces and temporary files go, inside the checkout.
OUTPUT_DIR = ROOT / ".bench_out"
#: Times the program's import in a fresh interpreter (NumPy, which the
#: program cannot make slower, is loaded first).
IMPORT_PROBE = (
    "import time, numpy; started = time.perf_counter(); import repro; "
    "print(time.perf_counter() - started)"
)

# One BLAS thread: the load comes from this process (plus the chaos
# workload's two shard processes), never from a BLAS thread pool.
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"


def _fail(message: str):
    """Exit with status 2 and one line on stderr, printing no result."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _use_program_source() -> None:
    """Import the program from ``src/``, which must exist."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        _fail(f"the program source {source / 'repro'} is missing")
    sys.path.insert(0, str(source))


def _stop_resource_tracker() -> None:
    """Reap the helper process ``multiprocessing`` starts for the
    multiprocess runtime's shared memory; it would otherwise outlive
    this process by a moment."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def import_seconds(probes: int) -> float:
    """Median time a fresh interpreter takes to import the program."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    times = []
    for _ in range(probes):
        completed = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(completed.stdout))
    return statistics.median(times)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _declared() -> dict:
    """The workloads and metrics BENCHMARK.json declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _document(seed: int, results: list) -> dict:
    """A result file: provenance, one entry per workload run, summary."""
    return {
        "benchmark": "repro-e2e",
        "benchmark_version": BENCHMARK_VERSION,
        "seed": seed,
        "provenance": provenance(seed),
        "results": results,
        "summary": summarize(results),
    }


def provenance(seed: int) -> dict:
    """Which code, inputs and host produced a result."""
    import numpy

    try:
        from repro.distributed.runtime.context import pinned_start_method

        start_method = pinned_start_method()
    except ImportError:
        start_method = os.environ.get("REPRO_START_METHOD", "unknown")
    commit = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    return {
        "git_commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "start_method": start_method,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def run_cycles(cycle, inputs, seconds, smoke, recorder=None) -> list:
    """Repeat whole cycles until ``seconds`` are spent (one with --smoke)."""
    from workloads import execute

    records = []
    deadline = time.perf_counter() + seconds
    while True:
        for position, spec in enumerate(cycle):
            records.append(execute(spec, position, inputs, recorder))
            # The previous run's reference cycles are freed here, not at
            # a random point inside the next run's timed rounds.
            gc.collect()
        if smoke or time.perf_counter() >= deadline:
            return records


def check_records(workload, records: list) -> dict:
    """Failure message per failed record index (run errors and cross-run
    checks: every repeat of a run position must reproduce its digest)."""
    failures = {index: r.error for index, r in enumerate(records) if r.error}
    first_digest = {}
    for index, record in enumerate(records):
        if record.digest is None:
            continue
        expected = first_digest.setdefault(record.position, record.digest)
        if record.digest != expected:
            kind = "traced" if record.traced else "repeated"
            failures.setdefault(index, f"{kind} run {record.label} changed its digest")
    if workload.cross_check is not None:
        for traced in (False, True):
            indices = [i for i, r in enumerate(records) if r.traced == traced]
            for local, message in workload.cross_check([records[i] for i in indices]).items():
                failures.setdefault(indices[local], message)
    return failures


def cycle_rates(records, positions) -> list:
    """Rounds per second of each cycle whose runs all succeeded."""
    rates = []
    for start in range(0, len(records) - positions + 1, positions):
        cycle = records[start : start + positions]
        if all(r.digest is not None for r in cycle):
            rates.append(sum(r.rounds for r in cycle) / (sum(r.run_ns for r in cycle) / 1e9))
    return rates


def end_to_end_metrics(records, positions, import_s, data_ns) -> dict:
    ok = [r for r in records if r.digest is not None]
    setup_ns = sum(
        _median([r.setup_ns for r in ok if r.position == p]) for p in range(positions)
    )
    round_us = []
    for position in range(positions):
        mine = [r for r in ok if r.position == position]
        if not mine:
            continue
        if mine[0].intervals_ns is not None:
            intervals = [i for r in mine for i in r.intervals_ns.tolist()]
        else:  # fused rounds: the per-round mean of each run
            intervals = [r.run_ns / r.rounds for r in mine]
        round_us.append(_median(intervals) / 1e3)
    return {
        "setup_s": import_s + (_median(data_ns) + setup_ns) / 1e9,
        "rounds_per_s": _median(cycle_rates(records, positions)),
        "round_p50_us": statistics.fmean(round_us) if round_us else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(recorder, untraced, traced, positions) -> dict:
    ok = [r for r in traced if r.digest is not None]
    rounds = sum(r.rounds for r in ok) or 1
    busy, own = recorder.totals()
    counts = recorder.counts
    wall_ns = sum(r.setup_ns + r.run_ns for r in ok)

    def per_round(table, layer):
        return table.get(layer, 0) / rounds

    def per_call_ms(layer, count):
        return busy.get(layer, 0) / counts[count] / 1e6 if counts[count] else 0.0

    intervals = [
        i for r in untraced if r.intervals_ns is not None for i in r.intervals_ns.tolist()
    ]
    p99 = statistics.quantiles(intervals, n=100)[98] / 1e3 if len(intervals) > 1 else 0.0
    untraced_rate = _median(cycle_rates(untraced, positions))
    traced_rate = _median(cycle_rates(traced, positions))
    rejoin_ms = [ms for r in ok for ms in r.rejoin_ms]
    cycles = max(1, len(traced) // positions)
    first_cycle = [r for r in untraced[:positions] if r.accuracy is not None]
    return {
        "pipeline.loop_self_ns": per_round(own, "pipeline.loop"),
        "distributed.engine.self_ns": per_round(own, "distributed.engine"),
        "distributed.cluster.self_ns": per_round(own, "distributed.cluster"),
        "distributed.worker.cohort_self_ns": per_round(own, "distributed.worker.cohort"),
        "distributed.server.self_ns": per_round(own, "distributed.server"),
        "distributed.runtime.step_self_ns": per_round(own, "distributed.runtime.step"),
        "simulation.self_ns": per_round(own, "simulation"),
        "data.sample_ns": per_round(busy, "data.sample"),
        "models.grad_ns": per_round(busy, "models.grad"),
        "models.accuracy_ns": per_round(busy, "models.accuracy"),
        "privacy.noise_ns": per_round(busy, "privacy.noise"),
        "compression.encode_ns": per_round(busy, "compression.encode"),
        "attacks.craft_ns": per_round(busy, "attacks.craft"),
        "distributed.network.deliver_ns": per_round(busy, "distributed.network.deliver"),
        "gars.aggregate_ns": per_round(busy, "gars.aggregate"),
        "optim.step_ns": per_round(busy, "optim.step"),
        "faults.apply_ns": per_round(busy, "faults.apply"),
        "telemetry.emit_ns": per_round(busy, "telemetry.emit"),
        "other_ns": (wall_ns - sum(own.values())) / rounds,
        "compression.bytes_per_round": counts["encoded_bytes"] / rounds,
        "gars.byzantine_selected_ratio": (
            counts["byzantine_selected"] / counts["aggregations"]
            if counts["aggregations"] else 0.0
        ),
        "faults.checkpoint_ms": per_call_ms("faults.checkpoint", "checkpoint_saves"),
        "faults.checkpoint_saves": counts["checkpoint_saves"] / cycles,
        "distributed.runtime.start_ms": per_call_ms("distributed.runtime.start", "runtime_starts"),
        "distributed.runtime.shutdown_ms": per_call_ms(
            "distributed.runtime.shutdown", "runtime_shutdowns"
        ),
        "distributed.runtime.rejoin_round_ms": _median(rejoin_ms),
        "telemetry.events_per_round": counts["telemetry_events"] / rounds,
        "pipeline.round_p99_us": p99,
        "pipeline.round_samples": len(intervals),
        "trace_overhead": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
        "models.final_accuracy": (
            statistics.fmean(r.accuracy for r in first_cycle) if first_cycle else 0.0
        ),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload here and return its result entry."""
    from tracer import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = OUTPUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        data_ns, inputs = [], None
        for _ in range(1 if smoke else 3):
            inputs = None  # at most one copy of the data alive
            started = time.perf_counter_ns()
            inputs = workload.build_inputs(seed)
            data_ns.append(time.perf_counter_ns() - started)
        cycle = workload.cycle(inputs, seed, workdir, smoke)
        budget = seconds / 2 if trace else seconds
        untraced = run_cycles(cycle, inputs, budget, smoke)
        traced, recorder = [], None
        if trace:
            recorder = SpanRecorder()
            traced = run_cycles(cycle, inputs, budget, smoke, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    records = untraced + traced
    failures = check_records(workload, records)
    if trace:
        values = per_layer_metrics(recorder, untraced, traced, len(cycle))
        recorder.write_jsonl(OUTPUT_DIR / f"trace-{name}.jsonl")
    else:
        import_s = import_seconds(1 if smoke else 5)
        values = end_to_end_metrics(untraced, len(cycle), import_s, data_ns)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "smoke": smoke,
        "correct": not failures and bool(records),
        "attempted": sum(r.rounds for r in records),
        "failed": sum(records[i].rounds for i in failures),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
        "runs": len(records),
        "cycles": len(untraced) // len(cycle),
        "digests": {r.label: r.digest for r in (traced or untraced)[: len(cycle)]},
        "failures": sorted({message for message in failures.values()}),
    }


# ----------------------------------------------------------------------
# every workload, each in a child process
# ----------------------------------------------------------------------


def summarize(results: list) -> dict:
    """Median and quartiles per (workload, trace, metric) over results."""
    summary: dict = {}
    for entry in results:
        key = "traced" if entry["trace"] else "untraced"
        table = summary.setdefault(entry["workload"], {}).setdefault(key, {})
        for metric, payload in entry["metrics"].items():
            table.setdefault(metric, {"unit": payload["unit"], "values": []})
            table[metric]["values"].append(payload["value"])
    for tables in summary.values():
        for table in tables.values():
            for payload in table.values():
                q1, median, q3 = quartiles(payload["values"])
                payload.update(median=median, q1=q1, q3=q3, n=len(payload["values"]))
    return summary


def drive(args) -> int:
    """Run every workload in fresh child processes; write one result file."""
    names = [workload["name"] for workload in _declared()["workloads"]]
    passes = [(name, False) for _ in range(args.repeats) for name in names]
    if args.trace:
        passes += [(name, True) for name in names]
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    results = []
    for name, trace in passes:
        child_out = OUTPUT_DIR / f"child-{os.getpid()}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(trace)),
            "--out", str(child_out),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, capture_output=True, text=True, timeout=300)
        if completed.returncode == 0 and child_out.exists():
            entry = json.loads(child_out.read_text())["results"][0]
            child_out.unlink()
        else:
            entry = {
                "workload": name, "seed": args.seed, "trace": trace, "correct": False,
                "attempted": 1, "failed": 1, "metrics": {},
                "failures": [(completed.stderr.strip().splitlines() or ["child failed"])[-1]],
            }
        results.append(entry)
        flag = "ok" if entry["correct"] else "FAILED " + "; ".join(map(str, entry["failures"]))
        print(f"{name:<14} {'traced' if trace else 'untraced':<9} {flag}", file=sys.stderr)
    document = _document(args.seed, results)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    for workload, tables in document["summary"].items():
        for key, table in tables.items():
            for metric, payload in table.items():
                print(
                    f"{workload:<14} {metric:<36} {payload['median']:>14.6g} "
                    f"[{payload['q1']:.6g}, {payload['q3']:.6g}] {payload['unit']} (n={payload['n']})"
                )
    correct = all(entry["correct"] for entry in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(entry["attempted"] for entry in results),
        "failed": sum(entry["failed"] for entry in results),
        "metrics": {},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="generates every input")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from a traced run (all workloads: add one traced pass)",
    )
    parser.add_argument("--repeats", type=int, default=1, help="untraced passes of all workloads")
    parser.add_argument("--smoke", action="store_true", help="one short cycle per run")
    parser.add_argument("--out", help="write the result JSON here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _use_program_source()
    if args.workload is None:
        return drive(args)
    names = [workload["name"] for workload in _declared()["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r} (one of {names})")
    entry = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.out:
        Path(args.out).write_text(json.dumps(_document(args.seed, [entry]), indent=1) + "\n")
    for metric, payload in entry["metrics"].items():
        print(f"{metric:<36} {payload['value']:>16.6f} {payload['unit']}")
    for message in entry["failures"]:
        print(f"FAILED: {message}")
    print(json.dumps({key: entry[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
