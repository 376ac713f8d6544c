"""A fixed reference task that reads how fast the host is running right now.

On a 2-vCPU VM that shares its physical cores with other tenants, the
same code runs in speed states up to 1.7x apart, lasting from seconds to
minutes.  The task below never changes between commits of the program;
it mixes the kinds of work the program does (768-bit modular
exponentiation, HMAC-SHA256, uint64 vector arithmetic, JSON round trips
and dictionary updates), so its time moves with the host's state and not
with the code under test.  The benchmark scales its timings by it.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import json
from time import perf_counter

import numpy as np

#: One pass's wall time on the reference host (2-vCPU Xeon VM at
#: 2.1 GHz, in its usual state).  Times scaled by
#: ``REFERENCE_PASS_S / pass time`` read as they would on that host.
REFERENCE_PASS_S = 0.070

_MODULUS = (1 << 767) + 1234567
_DOC = {f"k{i}": [i, i * 0.5, f"v{i}"] for i in range(200)}
_LEFT = np.arange(8192, dtype=np.uint64)
_RIGHT = _LEFT * np.uint64(7) + np.uint64(3)


def _task() -> None:
    x = 3
    for i in range(8):
        x = pow(x + i, (1 << 760) - 12345 - i, _MODULUS)
    digest = b"x"
    for _ in range(4800):
        digest = hmac.new(digest, b"abc", hashlib.sha256).digest()
    for _ in range(320):
        (_LEFT * _RIGHT + _LEFT) % np.uint64(1000003)
    for _ in range(32):
        json.loads(json.dumps(_DOC))
    counts: dict[int, int] = {}
    for i in range(64000):
        counts[i % 977] = counts.get(i % 977, 0) + i


def host_pass() -> float:
    """Seconds one pass of the reference task takes now.

    The collector is off during the pass, so the program's heap, which
    a collection would have to walk, does not leak into the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _task()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()
