"""The wire-codec contract: gradient compression between worker and server.

A :class:`GradientCodec` sits on the wire path — after the honest
workers (and the adversary) produce their submissions, before the
network delivers them to the server.  Because the parameter server
consumes plain float vectors, a codec here is a *simulate-the-wire*
transform: :meth:`~GradientCodec.encode_row` returns the reconstruction
the server would decode from the wire message, plus the **exact** byte
count that message would occupy on a real link.  Lossless codecs
(``lossless = True``) reconstruct the input bit-for-bit; lossy codecs
(top-k, sign, quantizers) return the degraded vector the downstream GAR
actually has to aggregate.

Determinism contract (the same invariant
:class:`repro.distributed.network.LossyNetwork` pins for drops): the
encoding of message ``(step, worker)`` is a pure function of the
codec's root seed, ``step`` and ``worker`` — never of the order in
which messages are encoded, and never of which other workers
participate.  This is what lets the synchronous cluster (whole round at
once), the multiprocess runtime (per-shard row blocks) and the
discrete-event simulator (partial cohorts, one wake at a time) replay
the same compressed run bit-identically.

Byte-count conventions, shared by every codec and the accounting
tests: a raw float is 8 bytes, a coordinate index is 4 bytes, a scale
or other per-message float header is 8 bytes, and packed bit payloads
round up to whole bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import SeedTree
from repro.typing import Matrix, Vector, is_integer

__all__ = ["GradientCodec"]

FLOAT_BYTES = 8
INDEX_BYTES = 4


class GradientCodec:
    """Base class for wire-path gradient codecs.

    Parameters
    ----------
    rng:
        Legacy seeding surface (mirrors ``LossyNetwork``): a generator
        whose *first draw* fixes the codec's root seed.  Consumed
        exactly once at construction, so two codecs built from
        identically-seeded generators encode identically.
    seed:
        Direct root seed, an integer >= 0; takes precedence over
        ``rng``.  Deterministic codecs (``stochastic = False``) never
        draw randomness and default to seed 0 when neither is given;
        stochastic codecs require one or the other.
    """

    #: Registry name of the codec (set by subclasses).
    name: str = "?"
    #: Whether ``encode`` reconstructs its input bit-for-bit.
    lossless: bool = False
    #: Whether the codec draws per-message randomness.  ``False`` means
    #: the encoding depends on the vector alone — not on ``step``,
    #: ``worker`` or the seed — so identical vectors encode to identical
    #: rows and byte counts, and a round encodes the ``f`` identical
    #: Byzantine copies once.
    stochastic: bool = False

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ):
        if seed is None and rng is not None:
            seed = int(rng.integers(0, 2**63))
        if seed is None:
            if self.stochastic:
                raise ConfigurationError(
                    f"codec {self.name!r} is stochastic and needs rng or seed"
                )
            seed = 0
        if not is_integer(seed) or seed < 0:
            raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
        self._seeds = SeedTree(int(seed))

    @property
    def seed(self) -> int:
        """The codec's root seed (the whole of its mutable-free state)."""
        return self._seeds.root_seed

    def _message_generator(self, step: int, worker: int) -> np.random.Generator:
        """The private stream of message ``(step, worker)``.

        A fresh generator per message makes variable draw counts
        (rejection sampling) safe: no message's randomness can shift
        another's, whatever the encoding order.
        """
        return self._seeds.generator("enc", int(step), int(worker))

    def encode_row(self, vector: Vector, step: int, worker: int) -> tuple[Vector, int]:
        """Encode one worker's submission for one round.

        Returns ``(wire_vector, nbytes)``: the reconstruction the
        server receives and the exact encoded size in bytes.  Must not
        mutate ``vector`` (submissions may alias live engine buffers).
        """
        raise NotImplementedError

    def encode_block(
        self, matrix: Matrix, step: int, workers: Sequence[int]
    ) -> tuple[Matrix, np.ndarray]:
        """Encode a stacked block of submissions for one round.

        ``matrix[i]`` is worker ``workers[i]``'s submission.  Returns
        ``(wire_matrix, nbytes)`` with ``nbytes`` an int64 array of
        per-row encoded sizes.  The base implementation loops over
        :meth:`encode_row`, so batch encoding is per-row encoding by
        construction; overrides must preserve that equivalence
        bit-for-bit (the property suite enforces it).
        """
        matrix, workers = self._block_arguments(matrix, workers)
        encoded = np.empty_like(matrix)
        nbytes = np.empty(len(workers), dtype=np.int64)
        for row, worker in enumerate(workers):
            wire, count = self.encode_row(matrix[row], step, worker)
            encoded[row] = wire
            nbytes[row] = count
        return encoded, nbytes

    @staticmethod
    def _block_arguments(
        matrix: Matrix, workers: Sequence[int]
    ) -> tuple[Matrix, list[int]]:
        """``encode_block``'s arguments as a float64 matrix and int ids,
        checked to hold one 2-D row per worker id."""
        workers = [int(worker) for worker in workers]
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(workers):
            raise ConfigurationError(
                f"encode_block needs one row per worker: matrix has shape "
                f"{matrix.shape} for {len(workers)} worker id(s)"
            )
        return matrix, workers

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"
