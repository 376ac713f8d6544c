"""Order statistics with an honest sample-count floor."""

from __future__ import annotations

import math
from typing import Sequence

#: A p99 is only meaningful with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``.

    Refuses a tail percentile the sample cannot support: the rank must
    leave at least ten samples above it, so p99 needs 1,000 samples and
    p90 needs 100.  The median needs only one sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q < 100:
        raise ValueError(f"percentile q={q} must lie strictly between 0 and 100")
    n = len(values)
    if q > 50 and n * (100 - q) / 100 < 10 - 1e-9:
        need = math.ceil(10 * 100 / (100 - q) - 1e-9)
        raise ValueError(
            f"p{q:g} needs at least {need} samples, got {n}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * n))
    return float(ordered[rank - 1])
