"""Checkpoint/resume: atomic snapshots, bit-identical continuation.

The core claim (ISSUE acceptance (b)): a run that is killed after a
periodic checkpoint and then resumed is bit-for-bit identical to one
that never stopped — including DP noise streams, attack RNG, worker
momentum and accuracy evaluations.  Plus the failure surface: missing /
corrupt / wrong-schema snapshots, mismatched clusters, and the
``checkpoint.saved`` telemetry counter.
"""

import json

import pytest

from repro.data.phishing import make_phishing_dataset
from repro.exceptions import ConfigurationError, TrainingError
from repro.faults import load_checkpoint, save_checkpoint
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.pipeline.loop import TrainingLoop
from repro.telemetry import MemorySink, Telemetry


def settings(**overrides):
    """Fresh kwargs for one Experiment (models are stateful: never share)."""
    payload = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=120, num_features=6),
        test_dataset=make_phishing_dataset(seed=1, num_points=40, num_features=6),
        num_steps=10,
        n=5,
        f=1,
        gar="median",
        attack="little",
        epsilon=0.5,
        momentum=0.9,
        batch_size=5,
        eval_every=5,
        seed=3,
    )
    payload.update(overrides)
    return payload


class TestKillResume:
    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        ckpt = tmp_path / "state.json"
        # The "killed" run: stops at round 6, last snapshot at round 6.
        Experiment(**settings(num_steps=6), checkpoint=ckpt, checkpoint_every=2).run()
        resumed = Experiment(**settings(), checkpoint=ckpt, checkpoint_every=2).resume()
        reference = Experiment(**settings()).run()
        # DP noise, attack RNG, batch samplers and momentum all restore
        # exactly: the completed run never diverges from the unbroken one.
        assert (
            resumed.final_parameters.tolist()
            == reference.final_parameters.tolist()
        )
        assert (
            resumed.history.losses.tolist() == reference.history.losses.tolist()
        )
        assert (
            resumed.history.accuracies.tolist()
            == reference.history.accuracies.tolist()
        )

    def test_resume_from_mid_interval_kill_uses_last_snapshot(self, tmp_path):
        # Kill at round 5 with checkpoint_every=2: the snapshot on disk
        # is from round 4, and resume replays rounds 5-10 from there.
        ckpt = tmp_path / "state.json"
        Experiment(**settings(num_steps=5), checkpoint=ckpt, checkpoint_every=2).run()
        assert load_checkpoint(ckpt)["step"] == 4
        resumed = Experiment(**settings(), checkpoint=ckpt, checkpoint_every=2).resume()
        reference = Experiment(**settings()).run()
        assert (
            resumed.final_parameters.tolist()
            == reference.final_parameters.tolist()
        )
        assert (
            resumed.history.losses.tolist() == reference.history.losses.tolist()
        )

    def test_resume_past_complete_run_adds_nothing(self, tmp_path):
        ckpt = tmp_path / "state.json"
        finished = Experiment(
            **settings(num_steps=6), checkpoint=ckpt, checkpoint_every=2
        ).run()
        resumed = Experiment(
            **settings(num_steps=6), checkpoint=ckpt, checkpoint_every=2
        ).resume()
        assert (
            resumed.history.losses.tolist() == finished.history.losses.tolist()
        )
        assert (
            resumed.final_parameters.tolist()
            == finished.final_parameters.tolist()
        )

    def test_resume_does_not_double_record_step_zero_accuracy(self, tmp_path):
        ckpt = tmp_path / "state.json"
        Experiment(**settings(num_steps=6), checkpoint=ckpt, checkpoint_every=2).run()
        resumed = Experiment(**settings(), checkpoint=ckpt, checkpoint_every=2).resume()
        reference = Experiment(**settings()).run()
        # eval_every=5 over 10 rounds: step 0 (train start), 5 and 10.
        assert len(reference.history.accuracies) == 3
        assert len(resumed.history.accuracies) == 3


class TestCheckpointFiles:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        ckpt = tmp_path / "nested" / "state.json"
        Experiment(**settings(num_steps=4), checkpoint=ckpt, checkpoint_every=2).run()
        assert ckpt.exists()
        leftovers = [
            path for path in ckpt.parent.iterdir() if ".tmp." in path.name
        ]
        assert leftovers == []

    def test_snapshot_cadence_and_schema(self, tmp_path):
        ckpt = tmp_path / "state.json"
        Experiment(**settings(num_steps=5), checkpoint=ckpt, checkpoint_every=3).run()
        payload = load_checkpoint(ckpt)
        assert payload["step"] == 3  # rounds 3 only: 6 is past num_steps=5
        assert payload["schema"] == "repro.checkpoint/1"
        assert set(payload) >= {"step", "cluster", "history"}

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(TrainingError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.json")

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(TrainingError, match="corrupt"):
            load_checkpoint(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"schema": "other/9"}), encoding="utf-8")
        with pytest.raises(TrainingError, match="schema"):
            load_checkpoint(path)

    def test_save_checkpoint_stamps_schema(self, tmp_path):
        path = tmp_path / "state.json"
        save_checkpoint(path, {"step": 0, "cluster": {}, "history": {}})
        assert load_checkpoint(path)["schema"] == "repro.checkpoint/1"


class TestValidation:
    def test_resume_requires_a_checkpoint_path(self):
        experiment = Experiment(**settings(num_steps=4))
        with pytest.raises(ConfigurationError, match="checkpoint"):
            experiment.resume()

    def test_loop_resume_requires_a_checkpoint_path(self):
        experiment = Experiment(**settings(num_steps=4))
        loop = TrainingLoop(
            cluster=experiment.build_cluster(), model=experiment.model
        )
        with pytest.raises(ConfigurationError, match="needs a checkpoint path"):
            loop.resume(4)

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            Experiment(
                **settings(), checkpoint=tmp_path / "s.json", checkpoint_every=0
            )

    def test_checkpoint_requires_inprocess_backend(self, tmp_path):
        with pytest.raises(ConfigurationError, match="inprocess"):
            Experiment(
                **settings(backend="multiprocess", num_shards=2),
                checkpoint=tmp_path / "s.json",
            )

    def test_mismatched_cluster_rejected_on_resume(self, tmp_path):
        ckpt = tmp_path / "state.json"
        Experiment(**settings(num_steps=4), checkpoint=ckpt, checkpoint_every=2).run()
        smaller = Experiment(
            **settings(n=3, f=0, attack=None), checkpoint=ckpt, checkpoint_every=2
        )
        with pytest.raises(ConfigurationError, match="workers"):
            smaller.resume()


def _without(*keys):
    """A damage that deletes the field at the path ``keys``."""

    def damage(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return payload

    return damage


def _retyped_state(payload):
    payload["cluster"]["workers"][0]["sampler_rng"]["has_uint32"] = True
    return payload


def _short_velocity(payload):
    payload["cluster"]["workers"][0]["velocity_submitted"] = [0.0, 0.0]
    return payload


def _unpaired_losses(payload):
    payload["history"]["losses"].pop()
    return payload


class TestDamagedCheckpoints:
    """A damaged checkpoint fails the way a config does: ``resume()``
    raises only a TrainingError or a ConfigurationError, naming the file
    and the failing field (a 4-round momentum run, d = 7, resumed from
    its round-2 snapshot)."""

    DAMAGE = {
        "not-an-object": (lambda payload: [1], TrainingError, "schema"),
        "schema-only": (
            lambda payload: {"schema": payload["schema"]},
            TrainingError,
            "field 'cluster' is missing",
        ),
        "cluster-not-an-object": (
            lambda payload: {**payload, "cluster": "x"},
            TrainingError,
            "field 'cluster' must be an object",
        ),
        "worker-without-noise-rng": (
            _without("cluster", "workers", 0, "noise_rng"),
            TrainingError,
            "field 'cluster.workers[0].noise_rng' is missing",
        ),
        "without-history": (
            _without("history"),
            TrainingError,
            "field 'history' is missing",
        ),
        "retyped-generator-state": (
            _retyped_state,
            TrainingError,
            "field 'cluster.workers[0].sampler_rng' is not a PCG64 state",
        ),
        "short-velocity": (
            _short_velocity,
            ConfigurationError,
            "field 'cluster.workers[0].velocity_submitted' has 2 entries",
        ),
        "unpaired-losses": (
            _unpaired_losses,
            TrainingError,
            "field 'history' losses does not pair with loss_steps",
        ),
    }

    @pytest.mark.parametrize("case", sorted(DAMAGE))
    def test_resume_names_the_file_and_the_field(self, tmp_path, case):
        damage, kind, field = self.DAMAGE[case]
        ckpt = tmp_path / "state.json"
        Experiment(
            **settings(num_steps=2, test_dataset=None), checkpoint=ckpt, checkpoint_every=2
        ).run()
        ckpt.write_text(json.dumps(damage(json.loads(ckpt.read_text()))))
        resumed = Experiment(
            **settings(num_steps=4, test_dataset=None), checkpoint=ckpt, checkpoint_every=2
        )
        with pytest.raises((TrainingError, ConfigurationError)) as error:
            resumed.resume()
        assert type(error.value) is kind
        assert str(ckpt) in str(error.value) and field in str(error.value)


class TestTelemetry:
    def test_checkpoint_saved_counter(self, tmp_path):
        sink = MemorySink()
        Experiment(
            **settings(num_steps=6),
            checkpoint=tmp_path / "state.json",
            checkpoint_every=2,
            telemetry=Telemetry(sinks=[sink]),
        ).run()
        saves = [
            event for event in sink.by_kind("counter")
            if event["name"] == "checkpoint.saved"
        ]
        assert [event["attrs"]["step"] for event in saves] == [2, 4, 6]
