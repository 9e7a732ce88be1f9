"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e -q``).

One ``--smoke`` pass of every workload, untraced and traced, feeds the
output checks; ``compare.py`` is exercised on synthetic results.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """One smoke pass of every workload, untraced then traced."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    document = json.loads(out.read_text())
    return {(entry["workload"], entry["trace"]): entry for entry in document["results"]}


def test_smoke_pass_is_correct_and_emits_every_declared_metric(smoke):
    assert set(smoke) == {(name, trace) for name in WORKLOADS for trace in (False, True)}
    for (name, trace), entry in smoke.items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["failures"])
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        assert list(entry["metrics"]) == [metric["name"] for metric in declared]
        for metric in declared:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert all(payload["value"] > 0 for payload in entry["metrics"].values()), name


def test_traced_runs_reproduce_the_untraced_digests(smoke):
    for name in WORKLOADS:
        untraced, traced = smoke[(name, False)], smoke[(name, True)]
        assert untraced["digests"] and untraced["digests"] == traced["digests"], name


def test_chaos_digests_agree_across_backends(smoke):
    digests = smoke[("chaos", False)]["digests"]
    assert digests["inprocess"] == digests["multiprocess"]


def test_fused_workloads_run_on_the_fused_engine(smoke):
    import workloads

    for name in ("fused-krum", "highdim-topk"):
        workload = workloads.WORKLOADS[name]
        cycle = workload.cycle(workload.build_inputs(3), 3, ROOT, True)
        for spec in cycle:
            assert spec.fused
            assert spec.build().build_cluster().engine.supports_fused, spec.label
        layer = smoke[(name, True)]["metrics"]
        assert layer["distributed.engine.self_ns"]["value"] > 0
        assert layer["distributed.cluster.self_ns"]["value"] == 0


def test_per_layer_trace_covers_each_workload(smoke):
    for name in WORKLOADS:
        metrics = smoke[(name, True)]["metrics"]
        assert metrics["pipeline.loop_self_ns"]["value"] > 0, name
        assert metrics["gars.aggregate_ns"]["value"] > 0, name
    assert smoke[("highdim-topk", True)]["metrics"]["compression.bytes_per_round"]["value"] > 0
    chaos = smoke[("chaos", True)]["metrics"]
    for metric in ("faults.apply_ns", "telemetry.emit_ns", "distributed.runtime.step_self_ns"):
        assert chaos[metric]["value"] > 0, metric
    assert smoke[("sim-async", True)]["metrics"]["simulation.self_ns"]["value"] > 0


def _result_file(path: Path, values: dict, seed: int = 0, version: int = 1) -> str:
    """A synthetic result file: ``values`` maps metric -> one value per run."""
    runs = len(next(iter(values.values())))
    results = [
        {
            "workload": "fused-krum", "trace": False, "correct": True, "failed": 0,
            "digests": {"s1": "d"},
            "metrics": {name: {"value": series[i]} for name, series in values.items()},
        }
        for i in range(runs)
    ]
    path.write_text(json.dumps({
        "benchmark": "repro-e2e", "benchmark_version": version, "seed": seed,
        "results": results,
    }))
    return str(path)


def _verdicts(capsys, argv) -> tuple[int, dict]:
    status = compare.main(argv)
    lines = capsys.readouterr().out.splitlines()[1:]
    return status, {
        line.split()[1]: line.split(" (bound")[0].rsplit("%", 1)[1].strip()
        for line in lines if not line.startswith("note")
    }


def test_compare_reports_improved_regressed_and_unresolved(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    a = _result_file(tmp_path / "a.json", {
        "rounds_per_s": steady,
        "setup_s": [1.0] * 10,
        "round_p50_us": steady,
        "peak_rss_mb": [50.0, 90.0, 60.0, 80.0, 70.0, 55.0, 85.0, 65.0, 75.0, 52.0],
    })
    b = _result_file(tmp_path / "b.json", {
        "rounds_per_s": [value * 1.3 for value in steady],   # faster: improved
        "setup_s": [1.0] * 10,                               # same: no worse
        "round_p50_us": [value * 1.5 for value in steady],   # slower: regressed
        "peak_rss_mb": [60.0, 80.0, 50.0, 90.0, 75.0, 65.0, 70.0, 52.0, 55.0, 85.0],
    })
    status, verdicts = _verdicts(capsys, [a, "--", b])
    assert status == 1
    assert verdicts == {
        "rounds_per_s": "improved",
        "setup_s": "no worse",
        "round_p50_us": "regressed",
        "peak_rss_mb": "unresolved",
    }


def test_compare_reports_output_changes(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", {"rounds_per_s": [1.0, 1.0]})
    document = json.loads(Path(a).read_text())
    for entry in document["results"]:
        entry["digests"] = {"s1": "other"}
    b = tmp_path / "b.json"
    b.write_text(json.dumps(document))
    assert compare.main([a, "--", str(b)]) == 0
    assert "output changed for run s1" in capsys.readouterr().out


@pytest.mark.parametrize("seed, version", [(1, 1), (0, 2)])
def test_compare_refuses_different_seeds_or_versions(tmp_path, capsys, seed, version):
    a = _result_file(tmp_path / "a.json", {"rounds_per_s": [1.0]})
    b = _result_file(tmp_path / "b.json", {"rounds_per_s": [1.0]}, seed, version)
    assert compare.main([a, "--", b]) == 2
    error = capsys.readouterr().err.strip()
    assert error.startswith("error: cannot compare") and "\n" not in error
