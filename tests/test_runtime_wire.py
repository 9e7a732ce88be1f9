"""Wire-plane lifecycle tests: create/attach, cleanup, leak-freedom.

The multiprocess runtime's correctness tests live in
``test_runtime_cluster.py`` / ``test_runtime_differential.py``; this
file owns the shared-memory plumbing — that segments round-trip bits,
that ``close`` releases and the owner unlinks, and (the load-bearing
part) that abnormal exits — an uncaught exception, a SIGINT mid
``python -m repro run`` — leave nothing behind in ``/dev/shm``.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed.runtime.wire import (
    SEGMENT_PREFIX,
    PlaneSpec,
    WirePlane,
    wire_segment_names,
)
from repro.exceptions import ConfigurationError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_spec_layout():
    spec = PlaneSpec(session="abc123", num_honest=3, dimension=5)
    assert spec.segment_name == f"{SEGMENT_PREFIX}-abc123"
    # params (5) + wire (15) + clean (15) + losses (3) + wire_bytes (3),
    # float64.
    assert spec.size_bytes == 8 * (5 + 15 + 15 + 3 + 3)


def test_create_validates_shape():
    with pytest.raises(ConfigurationError):
        WirePlane.create(0, 4)
    with pytest.raises(ConfigurationError):
        WirePlane.create(3, 0)


def test_create_attach_roundtrip_bits():
    rng = np.random.default_rng(0)
    with WirePlane.create(3, 4) as owner:
        assert not owner.closed
        assert np.all(owner.wire == 0.0) and np.all(owner.parameters == 0.0)
        values = rng.standard_normal((3, 4))
        owner.wire[:] = values
        owner.parameters[:] = values[0]
        owner.losses[:] = values[:, 0]

        attached = WirePlane.attach(owner.spec)
        try:
            # Exact float64 bits, both directions.
            assert attached.wire.tolist() == values.tolist()
            assert attached.parameters.tolist() == values[0].tolist()
            assert attached.losses.tolist() == values[:, 0].tolist()
            attached.clean[1] = 7.5
            assert owner.clean[1].tolist() == [7.5] * 4
        finally:
            attached.close()
        # A non-owner close never unlinks: the owner can still map it.
        assert owner.spec.segment_name in wire_segment_names()
    assert owner.closed


def test_close_unlinks_and_is_idempotent():
    plane = WirePlane.create(2, 3)
    name = plane.spec.segment_name
    assert name in wire_segment_names()
    plane.close()
    assert name not in wire_segment_names()
    plane.close()  # idempotent
    assert plane.closed
    with pytest.raises(FileNotFoundError):
        WirePlane.attach(plane.spec)


def test_atexit_backstop_unlinks_on_crash():
    """A process that dies with an open owned plane must not leak it."""
    script = textwrap.dedent(
        """
        import sys
        from repro.distributed.runtime.wire import WirePlane

        plane = WirePlane.create(2, 3)
        print(plane.spec.segment_name, flush=True)
        raise SystemExit(3)  # atexit still runs; no explicit close()
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 3, completed.stderr
    name = completed.stdout.strip()
    assert name.startswith(f"{SEGMENT_PREFIX}-")
    assert name not in wire_segment_names()


def test_interrupted_create_unlinks_its_segment(monkeypatch):
    """An interrupt while the segment's name is registered, or after
    ``shm_open`` while ``SharedMemory`` maps the segment, leaves no
    ``SharedMemory`` object for the atexit table: ``create`` itself must
    unlink whatever it made."""
    import mmap
    from multiprocessing import resource_tracker

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    before = set(wire_segment_names())
    with monkeypatch.context() as patch:
        patch.setattr(resource_tracker, "register", interrupted)
        with pytest.raises(KeyboardInterrupt):
            WirePlane.create(5, 69)
    with monkeypatch.context() as patch:
        patch.setattr(mmap, "mmap", interrupted)
        with pytest.raises(KeyboardInterrupt):
            WirePlane.create(5, 69)
    assert set(wire_segment_names()) - before == set()


def test_sigkill_right_after_shm_open_leaks_nothing():
    """A chief SIGKILLed between ``shm_open`` and anything after it runs
    no cleanup of its own: the name was registered with the resource
    tracker beforehand, so the tracker unlinks the segment."""
    script = textwrap.dedent(
        """
        import os, signal
        import _posixshmem
        from repro.distributed.runtime.wire import WirePlane

        shm_open = _posixshmem.shm_open

        def open_then_die(name, *args, **kwargs):
            descriptor = shm_open(name, *args, **kwargs)
            print(name.lstrip("/"), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)

        _posixshmem.shm_open = open_then_die
        WirePlane.create(2, 3)
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == -signal.SIGKILL, completed.stderr
    name = completed.stdout.strip()
    assert name.startswith(f"{SEGMENT_PREFIX}-")
    deadline = time.monotonic() + 10.0
    while name in wire_segment_names() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = name in wire_segment_names()
    if leaked:  # clean up before failing: a leak must not outlive the test
        os.unlink(f"/dev/shm/{name}")
    assert not leaked


def test_name_collision_never_unlinks_the_owner():
    with WirePlane.create(2, 3) as owner:
        with pytest.raises(FileExistsError):
            WirePlane.create(2, 3, session=owner.spec.session)
        assert owner.spec.segment_name in wire_segment_names()


def _processes_mentioning(text: str) -> list[int]:
    """Pids of live processes whose command line contains ``text``
    (none on platforms without ``/proc``)."""
    pids = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def _survivors(config_path: Path, seconds: float) -> list[int]:
    """Processes of the run at ``config_path`` still alive after up to
    ``seconds``; any survivor is SIGKILLed so a failure leaks nothing."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        pids = _processes_mentioning(str(config_path))
        if not pids:
            return []
        time.sleep(0.1)
    pids = _processes_mentioning(str(config_path))
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return pids


def _start_long_run(tmp_path: Path) -> tuple[subprocess.Popen, Path, set]:
    """``python -m repro run`` on a long two-shard multiprocess config,
    returned once its wire segment exists (so a signal lands mid-run,
    not during startup), with the config path and the segments that
    existed before it."""
    config = {
        "configs": [
            {
                "name": "sigint-probe",
                "num_steps": 100000,
                "n": 5,
                "f": 0,
                "gar": "average",
                "batch_size": 10,
                "eval_every": 100000,
                "seeds": [1],
                "backend": "multiprocess",
                "num_shards": 2,
            }
        ]
    }
    config_path = tmp_path / "long.json"
    config_path.write_text(json.dumps(config))
    before = set(wire_segment_names())
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", str(config_path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if set(wire_segment_names()) - before:
            return process, config_path, before
        if process.poll() is not None:
            pytest.fail(f"run exited early with {process.returncode}")
        time.sleep(0.1)
    process.kill()
    process.wait(timeout=10)
    pytest.fail("wire segment never appeared")


@pytest.mark.slow
def test_sigint_mid_run_leaves_no_segments(tmp_path):
    """``python -m repro run`` killed by SIGINT releases every segment,
    and 5 s later none of its processes (the chief or a shard) is alive."""
    process, config_path, before = _start_long_run(tmp_path)
    try:
        process.send_signal(signal.SIGINT)
        returncode = process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    assert _survivors(config_path, 5.0) == []
    assert returncode == 130
    assert set(wire_segment_names()) - before == set()


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc").is_dir(), reason="counts processes in /proc")
def test_sigkill_mid_run_leaves_no_shards(tmp_path):
    """A SIGKILLed chief runs no cleanup of its own: its shards notice
    they were orphaned and exit, after which the resource tracker
    unlinks the segment.  Within 10 s nothing of the run remains."""
    process, config_path, before = _start_long_run(tmp_path)
    # A SIGKILL between shm_open and the segment's registration with the
    # resource tracker leaves a segment no process can unlink: kill only
    # once the chief runs beside both of its (forked) shards.
    deadline = time.monotonic() + 60.0
    while len(_processes_mentioning(str(config_path))) < 3:
        if time.monotonic() > deadline:
            process.kill()
            pytest.fail("the shards never started")
        time.sleep(0.05)
    process.kill()
    process.wait(timeout=10)
    deadline = time.monotonic() + 10.0
    assert _survivors(config_path, 10.0) == []
    while set(wire_segment_names()) - before and time.monotonic() < deadline:
        time.sleep(0.1)
    assert set(wire_segment_names()) - before == set()
