"""Reference implementations of codec selection rules, kept as test oracles.

:func:`topk_reference` is the per-row stable-argsort top-k that
:meth:`repro.compression.TopKCodec.encode_block`'s block partition
replaced.  :mod:`tests.test_property_codecs` asserts the codec matches
it bit for bit.

Nothing in the library imports this module.
"""

from __future__ import annotations

import numpy as np

__all__ = ["topk_reference"]


def topk_reference(vector: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Keep ``vector``'s ``k`` largest-magnitude coordinates.

    A stable argsort of ``-|v|``: largest magnitude first, NaN last
    (NumPy sorts NaN to the end), equal magnitudes in coordinate order.
    Returns ``(encoded, nbytes)`` with 12 bytes per kept coordinate.
    """
    dimension = int(vector.shape[-1])
    if k >= dimension:
        return vector.copy(), 12 * dimension
    keep = np.argsort(-np.abs(vector), kind="stable")[:k]
    encoded = np.zeros_like(vector)
    encoded[keep] = vector[keep]
    return encoded, 12 * k
