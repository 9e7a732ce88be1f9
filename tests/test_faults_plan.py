"""Fault-plan model tests: validation, round-trips, resolution, sampling."""

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    build_fault_plan,
    sample_fault_plan,
    shard_partition,
)
from repro.rng import SeedTree


def plan_crash_rejoin():
    """Shard 1 (of 3) down for rounds 2..3, plus one of each worker fault."""
    return FaultPlan(
        events=(
            FaultEvent(round=2, kind="crash", shard=1),
            FaultEvent(round=4, kind="rejoin", shard=1),
            FaultEvent(round=3, kind="drop_round", worker=0),
            FaultEvent(round=5, kind="corrupt_payload", worker=2, factor=10.0),
            FaultEvent(round=5, kind="slow", worker=0, factor=4.0),
        ),
        num_shards=3,
    )


class TestFaultEvent:
    def test_kind_validation(self):
        with pytest.raises(ConfigurationError, match="fault kind"):
            FaultEvent(round=1, kind="explode", worker=0)
        assert set(FAULT_KINDS) == {
            "crash", "hang", "slow", "drop_round", "corrupt_payload", "rejoin"
        }

    def test_rounds_are_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            FaultEvent(round=0, kind="crash", shard=0)

    def test_scope_validation(self):
        with pytest.raises(ConfigurationError, match="shard-scoped"):
            FaultEvent(round=1, kind="crash", worker=0)
        with pytest.raises(ConfigurationError, match="shard-scoped"):
            FaultEvent(round=1, kind="rejoin", shard=0, worker=0)
        with pytest.raises(ConfigurationError, match="worker-scoped"):
            FaultEvent(round=1, kind="drop_round", shard=0)
        with pytest.raises(ConfigurationError, match="worker-scoped"):
            FaultEvent(round=1, kind="corrupt_payload")

    def test_factor_validation(self):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultEvent(round=1, kind="corrupt_payload", worker=0, factor=float("nan"))
        with pytest.raises(ConfigurationError, match="slow factor"):
            FaultEvent(round=1, kind="slow", worker=0, factor=0.0)

    def test_dict_round_trip_emits_only_used_fields(self):
        crash = FaultEvent(round=2, kind="crash", shard=1)
        assert crash.to_dict() == {"round": 2, "kind": "crash", "shard": 1}
        corrupt = FaultEvent(round=3, kind="corrupt_payload", worker=0, factor=5.0)
        assert corrupt.to_dict() == {
            "round": 3, "kind": "corrupt_payload", "worker": 0, "factor": 5.0
        }
        for event in (crash, corrupt):
            assert FaultEvent.from_dict(event.to_dict()) == event

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown fault event"):
            FaultEvent.from_dict({"round": 1, "kind": "crash", "shard": 0, "x": 1})


class TestShardPartition:
    def test_contiguous_cover(self):
        assert shard_partition(5, 2) == [(0, 1, 2), (3, 4)]
        assert shard_partition(4, 4) == [(0,), (1,), (2,), (3,)]
        assert shard_partition(3, 1) == [(0, 1, 2)]

    def test_matches_builder_split(self):
        # The fault plane must agree with Experiment.build_shard_specs.
        from repro.data.phishing import make_phishing_dataset
        from repro.models.logistic import LogisticRegressionModel
        from repro.pipeline.builder import Experiment

        experiment = Experiment(
            model=LogisticRegressionModel(6),
            train_dataset=make_phishing_dataset(seed=0, num_points=100, num_features=6),
            num_steps=2, n=5, f=0, gar="average", batch_size=10, seed=1,
            backend="multiprocess", num_shards=2,
        )
        specs = experiment.build_shard_specs()
        assert [spec.worker_ids for spec in specs] == shard_partition(5, 2)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="num_shards"):
            shard_partition(3, 0)
        with pytest.raises(ConfigurationError, match="cannot split"):
            shard_partition(2, 3)


class TestFaultPlan:
    def test_dict_round_trip(self):
        plan = plan_crash_rejoin()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_shard_bounds_checked(self):
        with pytest.raises(ConfigurationError, match="shard 5"):
            FaultPlan(
                events=(FaultEvent(round=1, kind="crash", shard=5),), num_shards=2
            )

    def test_rejoin_without_departure_rejected(self):
        with pytest.raises(ConfigurationError, match="no preceding"):
            FaultPlan(
                events=(FaultEvent(round=3, kind="rejoin", shard=0),), num_shards=1
            )

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="already down"):
            FaultPlan(
                events=(
                    FaultEvent(round=1, kind="crash", shard=0),
                    FaultEvent(round=3, kind="hang", shard=0),
                ),
                num_shards=2,
            )

    def test_rejoin_must_follow_departure(self):
        # A same-round pair is a rejoin *before* the crash (rejoin sorts
        # first), so the rejoin has nothing to close: rejected.
        with pytest.raises(ConfigurationError, match="no preceding"):
            FaultPlan(
                events=(
                    FaultEvent(round=3, kind="crash", shard=0),
                    FaultEvent(round=3, kind="rejoin", shard=0),
                ),
                num_shards=2,
            )

    def test_same_round_rejoin_then_crash_is_legal(self):
        # "rejoin at r" means present at r, so a fresh crash at r opens
        # a second outage over the rejoined state.
        plan = FaultPlan(
            events=(
                FaultEvent(round=2, kind="crash", shard=0),
                FaultEvent(round=4, kind="rejoin", shard=0),
                FaultEvent(round=4, kind="crash", shard=0),
            ),
            num_shards=2,
        )
        resolved = plan.resolve(2)
        outages = resolved.shard_outages(0)
        assert [(o.start, o.rejoin) for o in outages] == [(2, 4), (4, None)]

    def test_max_round(self):
        assert FaultPlan().max_round == 0
        assert plan_crash_rejoin().max_round == 5


class TestResolvedFaultPlan:
    def test_per_round_lookups(self):
        resolved = plan_crash_rejoin().resolve(3)  # shard i -> worker i
        assert resolved.partition == ((0,), (1,), (2,))
        assert resolved.down_shards(1) == frozenset()
        assert resolved.down_shards(2) == {1}
        assert resolved.down_shards(3) == {1}
        assert resolved.down_shards(4) == frozenset()  # rejoined
        assert resolved.rejoining_shards(4) == (1,)
        assert resolved.absent_workers(2) == {1}
        assert resolved.dropped_workers(3) == {0}
        assert resolved.zeroed_workers(3) == {0, 1}  # dropped + absent
        assert resolved.corrupted_workers(5) == {2: 10.0}
        assert resolved.slow_factor(5, 0) == 4.0
        assert resolved.slow_factor(5, 1) == 1.0
        assert resolved.absent_workers(4) == frozenset()

    def test_worker_bounds_checked_at_resolve(self):
        plan = FaultPlan(
            events=(FaultEvent(round=1, kind="drop_round", worker=7),), num_shards=1
        )
        with pytest.raises(ConfigurationError, match="worker 7"):
            plan.resolve(3)

    def test_shard_spec_fields_initial_spawn(self):
        resolved = plan_crash_rejoin().resolve(3)
        fields = resolved.shard_spec_fields(1)
        assert fields["start_step"] == 0
        assert fields["fail_step"] == 2 and fields["fail_mode"] == "die"
        assert fields["slow_steps"] == ()
        # Shard 0 owns worker 0's slow event and never departs.
        fields = resolved.shard_spec_fields(0)
        assert fields["fail_step"] is None
        assert fields["slow_steps"] == ((5, 4.0),)

    def test_shard_spec_fields_respawn_skips_past_outages(self):
        resolved = plan_crash_rejoin().resolve(3)
        fields = resolved.shard_spec_fields(1, start_round=4)
        assert fields["start_step"] == 3  # fast-forward rounds 1..3
        assert fields["fail_step"] is None  # no further outage scheduled
        with pytest.raises(ConfigurationError, match="unknown shard"):
            resolved.shard_spec_fields(9)


class TestSampling:
    def test_deterministic_in_the_seed(self):
        kwargs = dict(
            num_rounds=20, num_workers=6, num_shards=3,
            crash_rate=0.2, hang_rate=0.1, rejoin_after=2,
            drop_rate=0.1, corrupt_rate=0.05, slow_rate=0.05,
        )
        first = sample_fault_plan(SeedTree(9).generator("faults"), **kwargs)
        second = sample_fault_plan(SeedTree(9).generator("faults"), **kwargs)
        assert first == second
        other = sample_fault_plan(SeedTree(10).generator("faults"), **kwargs)
        assert first != other  # overwhelmingly likely at these rates

    def test_never_empties_the_cohort(self):
        plan = sample_fault_plan(
            SeedTree(3).generator("faults"),
            num_rounds=30, num_workers=4, num_shards=2, crash_rate=0.9,
        )
        resolved = plan.resolve(4)
        for round_index in range(1, 31):
            assert len(resolved.absent_workers(round_index)) < 4

    def test_rejoin_after_reopens_the_shard(self):
        plan = sample_fault_plan(
            SeedTree(3).generator("faults"),
            num_rounds=30, num_workers=4, num_shards=2,
            crash_rate=0.5, rejoin_after=2,
        )
        outages = plan.resolve(4).shard_outages(0)
        assert outages  # crash_rate=0.5 over 30 rounds: some outage fired
        for outage in outages:
            if outage.start + 2 <= 30:
                assert outage.rejoin == outage.start + 2
            else:  # rejoin would land past the horizon: stays down
                assert outage.rejoin is None

    def test_rate_validation(self):
        rng = SeedTree(0).generator("faults")
        with pytest.raises(ConfigurationError, match="crash_rate"):
            sample_fault_plan(rng, num_rounds=2, num_workers=2, crash_rate=1.5)
        with pytest.raises(ConfigurationError, match="rejoin_after"):
            sample_fault_plan(rng, num_rounds=2, num_workers=2, rejoin_after=0)
        with pytest.raises(ConfigurationError, match="num_rounds"):
            sample_fault_plan(rng, num_rounds=0, num_workers=2)


class TestBuildFaultPlan:
    def test_passthrough_and_schedule(self):
        plan = plan_crash_rejoin()
        seeds = SeedTree(1)
        built = build_fault_plan(plan, num_rounds=8, num_workers=3, seeds=seeds)
        assert built is plan
        from_dict = build_fault_plan(
            plan.to_dict(), num_rounds=8, num_workers=3, seeds=seeds
        )
        assert from_dict == plan

    def test_name_defaults(self):
        seeds = SeedTree(1)
        # "events" present -> schedule; bare string -> the named model.
        scheduled = build_fault_plan(
            {"events": [], "num_shards": 2}, num_rounds=4, num_workers=4, seeds=seeds
        )
        assert scheduled == FaultPlan(num_shards=2)
        sampled = build_fault_plan(
            "random", num_rounds=4, num_workers=4, seeds=seeds
        )
        assert isinstance(sampled, FaultPlan)

    def test_random_model_draws_from_the_faults_path(self):
        seeds = SeedTree(5)
        spec = {"name": "random", "crash_rate": 0.3, "num_shards": 2,
                "rejoin_after": 1}
        built = build_fault_plan(spec, num_rounds=15, num_workers=4, seeds=seeds)
        direct = sample_fault_plan(
            SeedTree(5).generator("faults"),
            num_rounds=15, num_workers=4, num_shards=2,
            crash_rate=0.3, rejoin_after=1,
        )
        assert built == direct

    def test_unknown_names_and_fields_rejected(self):
        seeds = SeedTree(1)
        with pytest.raises(ConfigurationError, match="unknown fault model"):
            build_fault_plan("chaotic", num_rounds=2, num_workers=2, seeds=seeds)
        with pytest.raises(ConfigurationError, match="unknown random fault"):
            build_fault_plan(
                {"name": "random", "bogus": 1},
                num_rounds=2, num_workers=2, seeds=seeds,
            )
        with pytest.raises(ConfigurationError, match="faults must be"):
            build_fault_plan(42, num_rounds=2, num_workers=2, seeds=seeds)
