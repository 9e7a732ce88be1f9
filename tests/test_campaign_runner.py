"""Campaign runner tests: planning, caching, crash-resume, bookkeeping."""

import numpy as np
import pytest

from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.runner import execute_cell, job_key, plan_campaign, run_campaign
from repro.campaign.store import STORE_SCHEMA, ResultStore, cell_key
from repro.campaign.report import render_campaign_report
from repro.metrics.history import TrainingHistory

MATRIX = {
    "name": "runner-test",
    "model": {"name": "logistic", "loss_kind": "mse"},
    "data_seed": 0,
    "base": {
        "num_steps": 2,
        "n": 3,
        "f": 1,
        "batch_size": 5,
        "eval_every": 1,
        "seeds": [1, 2],
    },
    "axes": {"gar": ["mda", "median"], "attack": [None, "little"]},
    "report": {"rows": "gar", "cols": "attack", "metrics": ["final_accuracy"]},
}


@pytest.fixture()
def matrix():
    return ScenarioMatrix.from_dict(MATRIX)


class CountingExecutor:
    """Serial execute wrapper that counts runs and can crash mid-campaign."""

    def __init__(self, crash_after: int | None = None):
        self.calls: list[tuple[str, int]] = []
        self._crash_after = crash_after

    def __call__(self, job):
        if self._crash_after is not None and len(self.calls) >= self._crash_after:
            # KeyboardInterrupt, not an Exception: a genuine kill must
            # bypass the runner's retry/quarantine net and abort.
            raise KeyboardInterrupt("simulated mid-campaign kill")
        self.calls.append((job.name, job.seed))
        return execute_cell(job)


class TestPlanning:
    def test_cold_plan_is_all_pending(self, matrix, tmp_path):
        plan = plan_campaign(matrix, ResultStore(tmp_path / "store"))
        assert len(plan.pending) == 8  # 4 cells x 2 seeds
        assert plan.completed == ()
        assert plan.total_runs == 8

    def test_plan_order_matches_matrix(self, matrix, tmp_path):
        plan = plan_campaign(matrix, ResultStore(tmp_path / "store"))
        names = [job.name for job in plan.pending]
        assert names == sorted(names, key=names.index)  # stable, grouped by cell
        assert [job.seed for job in plan.pending[:2]] == [1, 2]

    def test_job_key_matches_cell_key(self, matrix, tmp_path):
        plan = plan_campaign(matrix, ResultStore(tmp_path / "store"))
        job = plan.pending[0]
        cell = matrix.cells[0]
        assert job.key == job_key(cell, job.seed, matrix)
        assert job.key == cell_key(
            cell.config,
            job.seed,
            mode=cell.mode,
            data_seed=matrix.data_seed,
            model_spec=matrix.model_spec,
        )

    def test_smoke_plan_trims_seeds(self, matrix, tmp_path):
        plan = plan_campaign(matrix, ResultStore(tmp_path / "store"), smoke=True)
        assert len(plan.pending) == 4  # one seed per cell


class TestRunCampaign:
    def test_executes_all_then_skips_all(self, matrix, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_campaign(matrix, store)
        assert (first.executed, first.skipped) == (8, 0)
        assert len(store) == 8
        second = run_campaign(matrix, store)
        assert (second.executed, second.skipped) == (0, 8)
        assert "8 total" in second.describe()

    def test_records_are_complete(self, matrix, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(matrix, store)
        plan = plan_campaign(matrix, store)
        assert not plan.pending
        for name, seed, key in plan.completed:
            record = store.load(key)
            assert record["name"] == name
            assert record["seed"] == seed
            assert record["mode"] == "train"
            assert np.isfinite(record["final_loss"])
            assert len(record["final_parameters"]) > 0
            assert record["history"]["losses"]

    def test_crash_resume_completes_only_missing_cells(self, matrix, tmp_path):
        """Kill a campaign mid-run; re-invoking completes only the rest,
        and the final report is byte-identical to an uninterrupted run."""
        interrupted_store = ResultStore(tmp_path / "interrupted")
        crashing = CountingExecutor(crash_after=3)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(matrix, interrupted_store, execute=crashing)
        assert len(interrupted_store) == 3  # the completed prefix survived

        resumed = CountingExecutor()
        summary = run_campaign(matrix, interrupted_store, execute=resumed)
        assert summary.executed == 5  # only the missing cells ran
        assert summary.skipped == 3
        assert len(resumed.calls) == 5
        assert set(resumed.calls).isdisjoint(crashing.calls)

        uninterrupted_store = ResultStore(tmp_path / "uninterrupted")
        run_campaign(matrix, uninterrupted_store)
        assert render_campaign_report(matrix, interrupted_store) == \
            render_campaign_report(matrix, uninterrupted_store)

    def test_verbose_lists_runs(self, matrix, tmp_path, capsys):
        run_campaign(matrix, ResultStore(tmp_path / "store"), verbose=True)
        output = capsys.readouterr().out
        assert "8 pending run(s)" in output
        assert "seed 2" in output

    def test_diverged_runs_are_flagged(self, matrix, tmp_path):
        def fake_execute(job):
            loss = float("inf") if job.name.startswith("gar=mda") else 0.5
            return {
                "schema": STORE_SCHEMA,
                "key": job.key,
                "name": job.name,
                "seed": job.seed,
                "final_loss": loss,
                "min_loss": loss,
                "final_accuracy": None,
                "history": TrainingHistory().to_dict(),
                "privacy": None,
                "vn": None,
                "simulation": None,
            }

        store = ResultStore(tmp_path / "store")
        summary = run_campaign(matrix, store, execute=fake_execute)
        assert len(summary.diverged) == 4  # mda cells x 2 seeds, both attacks
        assert "non-finite" in summary.describe()
        # Cached non-finite records stay flagged on re-invocation.
        again = run_campaign(matrix, store, execute=fake_execute)
        assert again.executed == 0
        assert len(again.diverged) == 4


class TestExecuteCell:
    def test_vn_summary_for_train_cells(self, matrix, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(matrix, store)
        records = [store.load(key) for key in store.keys()]
        assert all(record["vn"] is not None for record in records)
        for record in records:
            assert record["vn"]["median_submitted"] > 0
            assert 0.0 <= record["vn"]["submitted_violation_fraction"] <= 1.0
        assert all(record["simulation"] is None for record in records)

    def test_simulate_mode_records_simulation_block(self, tmp_path):
        document = dict(MATRIX)
        document["axes"] = {"gar": ["mda"]}
        document["mode"] = "simulate"
        document["base"] = dict(
            MATRIX["base"], policy="semi-sync", policy_kwargs={"buffer_size": 2},
            latency="constant", latency_kwargs={"delay": 1.0}, seeds=[1],
        )
        matrix = ScenarioMatrix.from_dict(document)
        store = ResultStore(tmp_path / "store")
        run_campaign(matrix, store)
        record = store.load(store.keys()[0])
        assert record["mode"] == "simulate"
        simulation = record["simulation"]
        assert simulation["policy"] == "semi-sync"
        assert simulation["virtual_time"] > 0
        assert simulation["rounds"] >= 2
        assert record["vn"] is None
