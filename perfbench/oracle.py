"""Codec-exact reference for a round's aggregate.

The reference is computed independently of the program's numpy kernels:
plain Python integers for the ring sum, then the same float steps a
decoder must take (centre, divide by the scale, divide by the count).
Every contributor's vector is encoded exactly as the fixed-point codec
specifies, ``round(x * scale) mod 2^bits`` with round-half-even, so a
correct aggregate matches it bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def expected_mean(codec, vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """The exact mean the protocol must release for these contributions."""
    if not vectors:
        raise ValueError("no contributions")
    modulus = 1 << codec.modulus_bits
    half = modulus // 2
    totals = [0] * len(vectors[0])
    for vector in vectors:
        if len(vector) != len(totals):
            raise ValueError("contribution lengths differ")
        for i, value in enumerate(vector):
            totals[i] = (totals[i] + round(float(value) * codec.scale)) % modulus
    centred = [total - modulus if total >= half else total for total in totals]
    count = len(vectors)
    return np.array([(c / codec.scale) / count for c in centred], dtype=np.float64)


def check_aggregate(codec, aggregate, vectors: Sequence[Sequence[float]]) -> str | None:
    """``None`` when ``aggregate`` is the exact mean, else what is wrong."""
    if aggregate is None:
        return "no aggregate released"
    got = np.asarray(aggregate, dtype=np.float64)
    want = expected_mean(codec, vectors)
    if got.shape != want.shape:
        return f"aggregate has shape {got.shape}, expected {want.shape}"
    if not np.array_equal(got, want):
        worst = int(np.argmax(np.abs(got - want)))
        return (
            f"aggregate differs from the exact mean at index {worst}: "
            f"{got[worst]!r} != {want[worst]!r}"
        )
    return None
