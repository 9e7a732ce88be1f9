"""Shared-memory wire plane between the chief and its worker processes.

One :class:`WirePlane` is one ``multiprocessing.shared_memory`` segment
laid out as five float64 arrays:

* ``parameters`` — the ``(d,)`` model parameters, written by the chief
  before each round and read (copied) by every worker process;
* ``wire`` — the ``(H, d)`` submitted-gradient matrix, one row per
  honest worker, written by the owning shard process each round;
* ``clean`` — the ``(H, d)`` pre-noise gradients (the omniscient
  attack's view and the VN-ratio instrumentation — never visible to a
  real server, exactly like the in-process cluster's ``honest_clean``);
* ``losses`` — the ``(H,)`` per-worker training losses of the sampled
  batches at the round's (pre-update) parameters;
* ``wire_bytes`` — the ``(H,)`` exact encoded byte counts of the
  round's wire messages when the run carries a codec (zeros
  otherwise).  Stored as float64 so the plane stays a single-dtype
  layout; byte counts are integers well below 2**53, so the values are
  exact.

Gradients therefore cross the process boundary as plain memory writes:
no per-round pickling, no sockets — the per-round IPC is a handful of
tiny queue tokens (see :mod:`repro.distributed.runtime.cluster`).

Lifecycle: the chief *creates* (and ultimately *unlinks*) the segment;
workers *attach* and only ever *close* their mapping.  Creation
registers the plane in a module-level table whose ``atexit`` hook
unlinks anything still live, so a run killed by SIGINT or a mid-round
exception cannot leak ``/dev/shm`` segments — the context-manager form
(``with WirePlane.create(...) as plane:``) is still the primary
cleanup path; the hook is the backstop.  A creation that is itself
interrupted, before the plane reaches the table, unlinks its segment on
the way out.
"""

from __future__ import annotations

import atexit
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["PlaneSpec", "WirePlane", "SEGMENT_PREFIX", "wire_segment_names"]

#: Prefix of every wire-plane shared-memory segment name.  Kept short:
#: POSIX shared-memory names are length-limited on some platforms.
SEGMENT_PREFIX = "rpwire"

_FLOAT = np.dtype(np.float64)

#: Planes created (owned) by this process and not yet closed; the
#: ``atexit`` hook drains it so abnormal exits leave no segments behind.
_ACTIVE_PLANES: set["WirePlane"] = set()
_ATEXIT_REGISTERED = False


def _cleanup_active_planes() -> None:
    """Unlink every still-open owned plane (the ``atexit`` backstop)."""
    for plane in list(_ACTIVE_PLANES):
        try:
            plane.close()
        except Exception:  # pragma: no cover - best-effort at interpreter exit
            pass


def _register_active(plane: "WirePlane") -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_cleanup_active_planes)
        _ATEXIT_REGISTERED = True
    _ACTIVE_PLANES.add(plane)


@contextmanager
def _untracked_shared_memory():
    """Suppress resource-tracker registration while attaching a segment.

    Every ``SharedMemory`` constructed in a process registers itself
    with a resource tracker — including pure attachments (until Python
    3.13's ``track=False``).  That is wrong for the worker side twice
    over: under ``spawn`` the child's own tracker would *unlink* the
    chief's segment when the child exits; under ``fork`` the child
    shares the chief's tracker, so a later child-side ``unregister``
    would strip the chief's one registration and lose the leak
    backstop.  Skipping registration on attach leaves exactly one
    registration alive — the creating chief's — which is what makes the
    tracker the second backstop behind :func:`_cleanup_active_planes`.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


def _unlink_created(name: str, segment: shared_memory.SharedMemory | None) -> None:
    """Unlink a segment :meth:`WirePlane.create` made but never returned.

    Without a ``SharedMemory`` object (its constructor was interrupted,
    e.g. while starting the resource tracker) the name is unlinked
    directly: neither the ``atexit`` table nor, possibly, the tracker
    knows it.
    """
    if segment is not None:
        segment.unlink()  # also unregisters it from the resource tracker
        return
    try:
        import _posixshmem
    except ImportError:  # pragma: no cover - Windows: dies with its handle
        return
    try:
        _posixshmem.shm_unlink(f"/{name}")
    except FileNotFoundError:
        pass


def wire_segment_names() -> list[str]:
    """Names of wire-plane segments currently present in ``/dev/shm``.

    The leak-detection hook for tests and post-mortems; returns an
    empty list on platforms without a ``/dev/shm`` filesystem (where
    the same named segments exist but are not enumerable as files).
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(p.name for p in shm_dir.glob(f"{SEGMENT_PREFIX}-*"))


@dataclass(frozen=True)
class PlaneSpec:
    """Picklable identity of a wire plane: segment name plus layout.

    Worker processes receive this (not the plane object) and attach by
    name; the layout fields let both sides construct identical views.
    """

    session: str
    num_honest: int
    dimension: int

    @property
    def segment_name(self) -> str:
        """The shared-memory segment's global name."""
        return f"{SEGMENT_PREFIX}-{self.session}"

    @property
    def size_bytes(self) -> int:
        """Total segment size: params + wire + clean + losses + wire_bytes."""
        h, d = self.num_honest, self.dimension
        return _FLOAT.itemsize * (d + 2 * h * d + 2 * h)


class WirePlane:
    """A mapped wire-plane segment (chief side or worker side).

    Use :meth:`create` in the chief and :meth:`attach` in workers; both
    return context managers.  The exposed arrays are live views into
    shared memory — readers copy (``np.array(view)``) before retaining,
    and nobody may hold a view across :meth:`close`.
    """

    def __init__(self, spec: PlaneSpec, segment: shared_memory.SharedMemory, owner: bool):
        self._spec = spec
        self._segment = segment
        self._owner = bool(owner)
        h, d = spec.num_honest, spec.dimension
        item = _FLOAT.itemsize
        offset = 0
        self._parameters = np.ndarray((d,), dtype=_FLOAT, buffer=segment.buf, offset=offset)
        offset += d * item
        self._wire = np.ndarray((h, d), dtype=_FLOAT, buffer=segment.buf, offset=offset)
        offset += h * d * item
        self._clean = np.ndarray((h, d), dtype=_FLOAT, buffer=segment.buf, offset=offset)
        offset += h * d * item
        self._losses = np.ndarray((h,), dtype=_FLOAT, buffer=segment.buf, offset=offset)
        offset += h * item
        self._wire_bytes = np.ndarray(
            (h,), dtype=_FLOAT, buffer=segment.buf, offset=offset
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, num_honest: int, dimension: int, session: str | None = None) -> "WirePlane":
        """Create (and own) a zero-initialised plane for ``H`` workers.

        Any exit that does not return a registered plane — a
        ``KeyboardInterrupt`` while ``SharedMemory`` starts the resource
        tracker, say — unlinks the segment it created.  A name that
        already exists belongs to someone else and is never unlinked.
        """
        if num_honest < 1:
            raise ConfigurationError(f"num_honest must be >= 1, got {num_honest}")
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        spec = PlaneSpec(
            session=session if session is not None else uuid.uuid4().hex[:12],
            num_honest=int(num_honest),
            dimension=int(dimension),
        )
        segment = None
        try:
            segment = shared_memory.SharedMemory(
                name=spec.segment_name, create=True, size=spec.size_bytes
            )
            plane = cls(spec, segment, owner=True)
            plane._wire[:] = 0.0
            plane._clean[:] = 0.0
            plane._losses[:] = 0.0
            plane._wire_bytes[:] = 0.0
            plane._parameters[:] = 0.0
            _register_active(plane)
        except FileExistsError:
            raise
        except BaseException:
            _unlink_created(spec.segment_name, segment)
            raise
        return plane

    @classmethod
    def attach(cls, spec: PlaneSpec) -> "WirePlane":
        """Attach to an existing plane (worker side; never unlinks)."""
        with _untracked_shared_memory():
            segment = shared_memory.SharedMemory(name=spec.segment_name)
        return cls(spec, segment, owner=False)

    # ------------------------------------------------------------------
    # shared views
    # ------------------------------------------------------------------

    @property
    def spec(self) -> PlaneSpec:
        """This plane's picklable identity (ship it to workers)."""
        return self._spec

    @property
    def parameters(self) -> np.ndarray:
        """Live ``(d,)`` parameter view (chief writes, workers copy)."""
        return self._parameters

    @property
    def wire(self) -> np.ndarray:
        """Live ``(H, d)`` submitted-gradient matrix view."""
        return self._wire

    @property
    def clean(self) -> np.ndarray:
        """Live ``(H, d)`` pre-noise gradient matrix view."""
        return self._clean

    @property
    def losses(self) -> np.ndarray:
        """Live ``(H,)`` per-worker batch-loss view."""
        return self._losses

    @property
    def wire_bytes(self) -> np.ndarray:
        """Live ``(H,)`` per-worker encoded-byte-count view."""
        return self._wire_bytes

    @property
    def closed(self) -> bool:
        """Whether this mapping has been released."""
        return self._segment is None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping; the owner also unlinks the segment.

        Idempotent.  After this, every view handed out by this object
        is dead — callers copy what they need beforehand.
        """
        if self._segment is None:
            return
        self._parameters = self._wire = self._clean = self._losses = None
        self._wire_bytes = None
        segment, self._segment = self._segment, None
        segment.close()
        if self._owner:
            try:
                segment.unlink()
            except FileNotFoundError:  # already gone (double cleanup)
                pass
            _ACTIVE_PLANES.discard(self)

    def __enter__(self) -> "WirePlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("owner" if self._owner else "attached")
        return (
            f"WirePlane({self._spec.segment_name!r}, H={self._spec.num_honest}, "
            f"d={self._spec.dimension}, {state})"
        )
