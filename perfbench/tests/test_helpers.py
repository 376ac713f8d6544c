"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import asyncio
import sys

import numpy as np
import pytest

from perfbench.oracle import check_aggregate, expected_mean
from perfbench.spans import SEAMS, Tracer, self_times
from perfbench.stats import percentile


def test_p99_needs_a_thousand_samples():
    with pytest.raises(ValueError, match="1000"):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989.0


def test_median_needs_one_sample():
    assert percentile([4.0], 50) == 4.0


def _span(name, start, end, parent=-1):
    return [name, start, end, parent, None, 0, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0),
        _span("child", 1.0, 6.0, parent=0),
        _span("grandchild", 2.0, 5.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_with_back_to_back_and_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 3.0, 4.0, parent=0),
        # Two tasks' spans overlapping in time count once.
        _span("c", 6.0, 8.0, parent=0),
        _span("d", 7.0, 9.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 3.0)


def test_oracle_accepts_the_exact_mean_and_rejects_a_perturbed_one():
    from repro.crypto.fixedpoint import FixedPointCodec

    codec = FixedPointCodec()
    rng = np.random.default_rng(7)
    vectors = [rng.random(9).tolist() for _ in range(5)]
    encoded = codec.sum_vectors([codec.encode(v) for v in vectors])
    exact = codec.decode(encoded) / len(vectors)
    assert np.array_equal(exact, expected_mean(codec, vectors))
    assert check_aggregate(codec, exact, vectors) is None
    perturbed = exact.copy()
    perturbed[3] += 1.0 / codec.scale
    assert "index 3" in check_aggregate(codec, perturbed, vectors)
    assert check_aggregate(codec, exact[:-1], vectors) is not None
    assert check_aggregate(codec, None, vectors) is not None


def _seam_bindings():
    """Every place a seam's function is bound: (owner, attr) -> object."""
    import importlib

    bindings = {}
    for seam in SEAMS:
        module = importlib.import_module(seam.module)
        owner = module if seam.owner is None else getattr(module, seam.owner)
        original = owner.__dict__[seam.attr]
        bindings[(id(owner), seam.attr)] = original
        if seam.owner is None:
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    other.__dict__.get(seam.attr) is original
                ):
                    bindings[(id(other), seam.attr)] = original
    return bindings


def test_traced_run_restores_every_original():
    import repro.runtime.engine  # noqa: F401  (loads the modules the seams name)
    from repro.crypto.dh import TEST_GROUP
    from repro.service import service  # noqa: F401

    before = _seam_bindings()
    tracer = Tracer()
    tracer.install(SEAMS)
    try:
        assert TEST_GROUP.power(3, 5) == pow(3, 5, TEST_GROUP.prime)
        assert [span[0] for span in tracer.spans] == ["crypto.dh_power"]
    finally:
        tracer.restore()
    assert _seam_bindings() == before
    TEST_GROUP.power(3, 5)
    assert len(tracer.spans) == 1


def test_async_seam_counts_only_its_own_slices():
    tracer = Tracer()

    async def work(steps):
        for _ in range(steps):
            await asyncio.sleep(0)
        if steps == 0:
            raise KeyError("boom")
        return steps

    traced = tracer.wrap("job", work)

    async def main():
        return await asyncio.gather(traced(50), traced(50))

    assert asyncio.run(main()) == [50, 50]
    with pytest.raises(KeyError):
        asyncio.run(traced(0))
    first, second, failed = tracer.spans
    for span in (first, second):
        assert 0.0 < span[6] < span[2] - span[1]
    assert failed[2] >= failed[1]


def test_host_pass_leaves_the_collector_as_it_was():
    import gc

    from perfbench.hostspeed import host_pass

    assert gc.isenabled()
    assert host_pass() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        assert host_pass() > 0.0
        assert not gc.isenabled()
    finally:
        gc.enable()
