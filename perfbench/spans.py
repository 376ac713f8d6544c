"""In-memory span recorder and the seams it wraps for the traced run.

Spans are recorded from the benchmark's own files: :class:`Tracer`
replaces public functions and methods of ``repro`` with thin wrappers for
the duration of a traced unit and puts the originals back afterwards.
Nothing under ``src/`` knows about it.

Each span records its name, ``perf_counter`` start and end, its parent
span and a key (a round id such as ``r12`` or a submission id), plus one
optional amount (bytes, entries) that its seam counts.  Parents come from
a :mod:`contextvars` variable, so rounds interleaved on one asyncio loop
each see their own call stack.

A span's *self time* is its duration minus the part of that interval its
direct child spans cover.  An ``async`` seam is timed by stepping its
coroutine by hand, so its duration counts only the slices in which its
own task ran, never the time other tasks held the loop.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import os
import stat
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)

# Field positions in a span record (a list, for cheap appends).
NAME, START, END, PARENT, KEY, AMOUNT, ACTIVE = range(7)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in seconds, in recording order.

    Direct children are merged as intervals before subtracting, so both
    back-to-back children and children of concurrent tasks that overlap
    are counted once; a grandchild lies inside its parent and is never
    subtracted from the grandparent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        duration = span[ACTIVE] if span[ACTIVE] is not None else span[END] - span[START]
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(max(0.0, duration - covered))
    return result


class _Suspend:
    """Re-yields one value of a hand-stepped coroutine to the event loop."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __await__(self):
        return (yield self.value)


class Tracer:
    """Span recorder with install/restore of wrappers around seams."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.gc_seconds = 0.0
        self._patched: list[tuple[Any, str, Any]] = []
        self._gc_started = 0.0

    # ------------------------------------------------------------- spans

    def open(self, name: str, key: str | None = None) -> int:
        parent = _CURRENT.get()
        if key is None and parent >= 0:
            key = self.spans[parent][KEY]
        self.spans.append([name, perf_counter(), 0.0, parent, key, 0, None])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()

    def span(self, name: str, key: str | None = None) -> "_SpanContext":
        """``with tracer.span(name):`` records a span around a block."""
        return _SpanContext(self, name, key)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        key_of: Callable | None = None,
        amount_of: Callable | None = None,
        when: Callable | None = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``key_of(args, kwargs)`` names the round or submission (else the
        parent's key is inherited); ``amount_of(args, kwargs, result)``
        returns the amount the seam counts; ``when(args, kwargs)`` False
        skips the span for that call.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = tracer.open(name, key_of(args, kwargs) if key_of else None)
                token = _CURRENT.set(index)
                coro = fn(*args, **kwargs)
                active = 0.0
                sent: Any = None
                thrown: BaseException | None = None
                try:
                    while True:
                        started = perf_counter()
                        try:
                            if thrown is not None:
                                error, thrown = thrown, None
                                yielded = coro.throw(error)
                            else:
                                yielded = coro.send(sent)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            active += perf_counter() - started
                        try:
                            sent = await _Suspend(yielded)
                        except BaseException as error:  # re-raised inside coro
                            thrown = error
                finally:
                    _CURRENT.reset(token)
                    tracer.close(index)
                    tracer.spans[index][ACTIVE] = active

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            index = tracer.open(name, key_of(args, kwargs) if key_of else None)
            token = _CURRENT.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                tracer.close(index)
            if amount_of is not None:
                tracer.spans[index][AMOUNT] = amount_of(args, kwargs, result)
            return result

        return traced

    # ----------------------------------------------------- install/restore

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, seams: list["Seam"]) -> None:
        """Wrap every seam that exists in the program; skip the rest.

        A module-level function is also replaced wherever a ``repro``
        module imported it by name, so every caller sees the wrapper.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for seam in seams:
            owner = _resolve(seam.module, seam.owner)
            if owner is None or seam.attr not in owner.__dict__:
                continue
            original = owner.__dict__[seam.attr]
            replacement = self.wrap(
                seam.name,
                original,
                key_of=seam.key_of,
                amount_of=seam.amount_of,
                when=seam.when,
            )
            self.patch(owner, seam.attr, replacement)
            if inspect.ismodule(owner):
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if (
                        module is not owner
                        and name.startswith("repro")
                        and module.__dict__.get(seam.attr) is original
                    ):
                        self.patch(module, seam.attr, replacement)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        """Put back every original, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_seconds += perf_counter() - self._gc_started


class _SpanContext:
    __slots__ = ("tracer", "name", "key", "index", "token")

    def __init__(self, tracer: Tracer, name: str, key: str | None) -> None:
        self.tracer = tracer
        self.name = name
        self.key = key

    def __enter__(self) -> int:
        self.index = self.tracer.open(self.name, self.key)
        self.token = _CURRENT.set(self.index)
        return self.index

    def __exit__(self, *exc) -> None:
        _CURRENT.reset(self.token)
        self.tracer.close(self.index)


def _resolve(module_name: str, owner: str | None):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if owner is None:
        return module
    return getattr(module, owner, None)


# ------------------------------------------------------------------ seams


@dataclass(frozen=True)
class Seam:
    """One public function or method of ``repro`` recorded as a span."""

    name: str
    module: str
    owner: str | None
    attr: str
    key_of: Callable | None = None
    amount_of: Callable | None = None
    when: Callable | None = None


def _round_key(index: int) -> Callable:
    """Key from a ``round_id`` argument at positional ``index`` (after self)."""

    def key_of(args, kwargs):
        value = kwargs.get("round_id", args[index] if len(args) > index else None)
        return None if value is None else f"r{value}"

    return key_of


def _family_miss(args, kwargs) -> bool:
    # A hit returns the cached family at once; only a miss expands one.
    # ``_cache`` is read, never written, and its absence counts as a miss.
    masks, group = args[0], args[1]
    return group not in getattr(masks, "_cache", {})


def _fsync_amount(args, kwargs, result) -> int:
    # A regular file synced inside a space rewrite is the space file:
    # its size is the bytes that put wrote.
    info = os.fstat(args[0])
    return info.st_size if stat.S_ISREG(info.st_mode) else 0


SEAMS: list[Seam] = [
    # repro.runtime: the engine's public per-phase calls.
    Seam("runtime.open", "repro.runtime.engine", "RoundEngine", "open_round", _round_key(1)),
    Seam("runtime.provision", "repro.runtime.engine", "RoundEngine", "provision_mask",
         _round_key(2)),
    Seam("runtime.collect", "repro.runtime.engine", "RoundEngine", "contribute", _round_key(2)),
    Seam("runtime.finalize", "repro.runtime.engine", "RoundEngine", "finalize_round",
         _round_key(1)),
    # repro.sgx
    Seam("sgx.quote_verify", "repro.sgx.attestation", "AttestationService", "verify"),
    Seam("sgx.quote_verify", "repro.sgx.attestation", "AttestationService", "screen"),
    Seam("sgx.ecall", "repro.sgx.enclave", "Enclave", "ecall"),
    # repro.crypto: public-key, cipher and commitment work.
    Seam("crypto.dh_power", "repro.crypto.dh", "DHGroup", "power"),
    Seam("crypto.table_build", "repro.crypto.group_ops", "FixedBaseTable", "__init__"),
    Seam("crypto.schnorr", "repro.crypto.schnorr", "SchnorrPublicKey", "verify"),
    Seam("crypto.schnorr", "repro.crypto.schnorr", None, "batch_verify"),
    Seam("crypto.schnorr", "repro.crypto.schnorr", "SchnorrKeyPair", "sign"),
    Seam("crypto.cipher", "repro.crypto.cipher", "AuthenticatedCipher", "encrypt",
         amount_of=lambda a, k, r: len(a[2])),
    Seam("crypto.cipher", "repro.crypto.cipher", "AuthenticatedCipher", "decrypt",
         amount_of=lambda a, k, r: len(r)),
    Seam("crypto.commitments", "repro.crypto.commitments", None, "commit_masks"),
    Seam("crypto.commitments", "repro.crypto.commitments", None, "verify_opening"),
    Seam("crypto.commitments", "repro.crypto.commitments", None, "batch_verify_openings"),
    Seam("crypto.commitments", "repro.crypto.commitments", "MaskCommitmentSet",
         "verify_sum_zero"),
    # repro.crypto masking: DRBG expansion and grouped mask families.
    Seam("crypto.drbg", "repro.crypto.drbg", "HmacDrbg", "generate_block",
         amount_of=lambda a, k, r: len(r)),
    Seam("crypto.mask_expand", "repro.crypto.masking", "GroupedSumZeroMasks", "group_family",
         when=_family_miss),
    # repro.network
    Seam("network.deliver", "repro.network.transport", "Network", "deliver_raw"),
    # repro.core: the cloud service's admission and aggregation.
    Seam("core.cloud_submit", "repro.core.service", "CloudService", "submit"),
    Seam("core.cloud_submit", "repro.core.service", "CloudService", "submit_verified"),
    Seam("core.cloud_finalize", "repro.core.service", "CloudService",
         "finalize_blinded_round"),
    # repro.scale
    Seam("scale.fold", "repro.scale.streaming", "StreamingSubgroupAccumulator", "fold"),
    # repro.service: queue, audit, journal, storage and round driving.
    Seam("service.queue_submit", "repro.service.queue", "SubmissionQueue", "submit"),
    Seam("service.queue_take", "repro.service.queue", "SubmissionQueue", "take"),
    Seam("service.queue_mark", "repro.service.queue", "SubmissionQueue", "mark_assigned"),
    Seam("service.queue_mark", "repro.service.queue", "SubmissionQueue", "mark_applied"),
    Seam("service.audit", "repro.service.audit", "AuditLog", "record"),
    *[
        Seam("service.journal", "repro.service.journal", "RoundJournal", attr)
        for attr in (
            "round_opened", "round_finalized", "round_aborted",
            "entries", "status_of", "opened_entry", "unfinished",
        )
    ],
    Seam("service.storage_put", "repro.service.storage", "DiskBackend", "put"),
    Seam("service.storage_append", "repro.service.storage", "DiskBackend", "append",
         amount_of=lambda a, k, r: int(r)),
    Seam("service.storage_read", "repro.service.storage", "DiskBackend", "read_log",
         amount_of=lambda a, k, r: len(r)),
    Seam("service.fsync", "os", None, "fsync", amount_of=_fsync_amount),
    Seam("service.round", "repro.service.async_engine", "AsyncRoundEngine", "run_round",
         _round_key(1)),
]
