"""The three workloads: what they build, how a unit runs, how it is checked.

A *unit* is one engine round (``rounds-*``) or one service wave
(``service-disk``).  Run length is a count of units, never a time: the
service's storage cost grows with its history, so a time-bounded run
would compare different state sizes on a faster and a slower commit.

Every input the program receives (values, dropout members, submission
order) is drawn from the workload seed here; the program sees nothing
else.  The systems are driven only through public calls:
``Deployment.build`` and ``RoundEngine.round_stages`` for rounds,
``GlimmerService.add_tenant``/``submit``/``run_pending_sync`` for the
hosted service.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from perfbench.oracle import check_aggregate
from perfbench.spans import Tracer

COHORT = 256
SUBGROUP_SIZE = 16
#: Every 8th participant completes provisioning, then never contributes.
DROPOUT_STRIDE = 8
#: Warm-up rounds over a small prefix of the cohort.  Fixed-base tables
#: are built lazily once a base has been used ``AUTO_BUILD_THRESHOLD``
#: (8) times and only while the table budget lasts; the prefix earns the
#: whole budget exactly as the full cohort's first participants would, at
#: an eighth of the cost.
WARM_PREFIX = 32
WARM_PREFIX_ROUNDS = 8

TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
DEVICES_PER_TENANT = 32
QUEUE_CAPACITY = 64
#: Two waves: the first wave costs several times a steady one, and the
#: shared devices' platform keys cross the table threshold in the second.
WARM_WAVES = 2


@dataclass
class Unit:
    """What the runner measured and collected for one round or wave."""

    wall: float = 0.0
    contributions: int = 0
    attempted: int = 0
    failed: int = 0
    round_walls: list[float] = field(default_factory=list)
    applied_s: list[float] = field(default_factory=list)
    wire_bytes: int = 0
    reports: list = field(default_factory=list)
    #: rounds-*: (label, start, end) per generator step; phase coverage.
    steps: list[tuple[str, float, float]] = field(default_factory=list)
    #: service-disk: submission id -> (tenant, values) submitted.
    submitted: dict[str, tuple[str, list[float]]] = field(default_factory=dict)
    #: rounds-*: (report, {user: values} of contributors) to check.
    expected: list = field(default_factory=list)


def _values(rng: np.random.Generator, length: int) -> list[float]:
    # Inside the deployment's range predicate [0, 1].
    return rng.random(length).tolist()


# ------------------------------------------------------------------ rounds


class RoundsSystem:
    """A 256-client deployment running serial rounds back to back."""

    def __init__(self, seed: int, grouped: bool) -> None:
        from repro.experiments.common import Deployment
        from repro.scale.config import ScaleConfig

        self.seed = seed
        self.grouped = grouped
        self.deployment = Deployment.build(
            num_users=COHORT,
            seed=f"perfbench:{seed}".encode(),
            parallelism=ScaleConfig(subgroup_size=SUBGROUP_SIZE) if grouped else None,
        )
        self.participants = [user.user_id for user in self.deployment.corpus.users]
        self.features = self.deployment.features.bigrams
        self.codec = self.deployment.codec
        self.next_round_id = 1

    def warm_up(self) -> None:
        for index in range(WARM_PREFIX_ROUNDS):
            self.run_unit(-1 - index, self.participants[:WARM_PREFIX])

    def run_unit(
        self, index: int, participants: list[str] | None = None,
        tracer: Tracer | None = None,
    ) -> Unit:
        from repro.runtime import OUTCOME_ACCEPTED

        participants = participants or self.participants
        rng = np.random.default_rng([self.seed, index + 1_000_000])
        values = {user: _values(rng, len(self.features)) for user in participants}
        dropouts: set[str] = set()
        if self.grouped:
            offset = (self.seed + index) % DROPOUT_STRIDE
            dropouts = set(participants[offset::DROPOUT_STRIDE])
        round_id = self.next_round_id
        self.next_round_id += 1
        stages = self.deployment.engine.round_stages(
            round_id, participants, values, self.features,
            collect_dropouts=tuple(u for u in participants if u in dropouts),
        )
        unit = Unit()
        label = "open"
        start = perf_counter()
        while True:
            scope = (
                tracer.span(f"runtime.phase.{label}", f"r{round_id}")
                if tracer is not None else nullcontext()
            )
            report = None
            with scope:
                try:
                    following = next(stages)
                except StopIteration as stop:
                    report = stop.value
            end = perf_counter()
            unit.steps.append((label, start, end))
            if report is not None:
                break
            label, start = following, end
        finished = unit.steps[-1][2]
        # The k-th provision step serves participants[k]: a device's
        # contribution starts with fetching its mask and is applied when
        # the round finalizes.
        provision = [step for step in unit.steps if step[0] == "provision"]
        contributors = [u for u in participants if u not in dropouts]
        for user, fetch in zip(participants, provision):
            if user not in dropouts:
                unit.applied_s.append(finished - fetch[1])
        unit.wall = finished - unit.steps[0][1]
        unit.round_walls.append(unit.wall)
        unit.attempted = len(contributors) + 1
        refused = sum(
            1 for u in contributors if report.outcomes.get(u) != OUTCOME_ACCEPTED
        )
        unit.failed = refused + int(bool(report.aborted))
        unit.contributions = int(report.num_contributions)
        unit.wire_bytes = int(report.bytes_on_wire)
        unit.reports.append(report)
        unit.expected.append((report, {u: values[u] for u in contributors}))
        return unit

    def verify(self, units: list[Unit]) -> list[str]:
        """Oracle over every unit's aggregate; returns the mismatches."""
        problems = []
        for unit in units:
            for report, contributed in unit.expected:
                problem = check_aggregate(
                    self.codec, report.aggregate, list(contributed.values())
                )
                if problem:
                    problems.append(f"round {report.round_id}: {problem}")
                    unit.failed += 1
        return problems

    def close(self) -> None:
        self.deployment.engine.close_scale_pool()


# ----------------------------------------------------------------- service


def _tmpfs_fsync(fd: int) -> None:
    """``fsync`` with tmpfs semantics: nothing to flush, returns at once."""


@contextmanager
def tmpfs_fsync():
    """Run the service with the fsync semantics of a tmpfs state directory.

    The state directory must live inside the checkout, on whatever disk
    holds it.  On a 2-vCPU VM's virtio disk, fsync latency is noise, not
    code: identical runs spread 45-66 clients/s, and submit p99 ranged
    16-40 ms from run to run.  tmpfs implements ``fsync`` as a no-op, so
    the stand-in gives every disk tmpfs behaviour.  Every write,
    rename and directory open still happens; the fsync cost the code
    controls is reported as the count ``service.fsync.calls``.
    """
    real = os.fsync
    os.fsync = _tmpfs_fsync
    try:
        yield
    finally:
        os.fsync = real


class ServiceSystem:
    """Four tenants sharing one blinder over a disk backend."""

    def __init__(self, seed: int, state_dir: str) -> None:
        from repro.service.service import GlimmerService
        from repro.service.storage import DiskBackend

        self.seed = seed
        self.state_dir = state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        self.service = GlimmerService(
            DiskBackend(state_dir),
            base_seed=f"perfbench:{seed}".encode(),
            num_users=DEVICES_PER_TENANT,
            queue_capacity=QUEUE_CAPACITY,
        )
        for tenant in TENANTS:
            self.service.add_tenant(tenant)
        self.devices = [
            (tenant, user)
            for tenant in TENANTS
            for user in sorted(self.service.tenant(tenant).deployment.clients)
        ]
        self.length = len(self.service.tenant(TENANTS[0]).deployment.features)
        self.codec = self.service.tenant(TENANTS[0]).deployment.codec

    def warm_up(self) -> None:
        for index in range(WARM_WAVES):
            self.run_unit(-1 - index)

    def run_unit(self, index: int, tracer: Tracer | None = None) -> Unit:
        from repro.errors import AdmissionError

        rng = np.random.default_rng([self.seed, index + 2_000_000])
        order = [self.devices[i] for i in rng.permutation(len(self.devices))]
        values = [_values(rng, self.length) for _ in order]
        unit = Unit()
        started: list[float] = []
        wave_start = perf_counter()
        for (tenant, user), vector in zip(order, values):
            scope = (
                tracer.span("bench.submit") if tracer is not None else nullcontext()
            )
            begin = perf_counter()
            try:
                with scope:
                    submission = self.service.submit(tenant, user, vector)
            except AdmissionError:
                unit.failed += 1
                continue
            started.append(begin)
            unit.submitted[submission] = (tenant, vector)
        drain_start = perf_counter()
        scope = tracer.span("bench.run_pending") if tracer is not None else nullcontext()
        with scope:
            reports = self.service.run_pending_sync()
        finished = perf_counter()
        unit.wall = finished - wave_start
        unit.round_walls.append(finished - drain_start)
        unit.applied_s = [finished - begin for begin in started]
        unit.attempted = len(order) + len(TENANTS)
        unit.failed += len(TENANTS) - len(reports)
        unit.contributions = sum(int(r.num_contributions) for r in reports)
        unit.wire_bytes = sum(int(r.bytes_on_wire) for r in reports)
        unit.reports = reports
        return unit

    def verify(self, units: list[Unit]) -> list[str]:
        """Journal oracle, queue states and the audit chain."""
        from repro.service.journal import STATUS_FINALIZED, STATUS_OPENED
        from repro.service.queue import STATE_APPLIED

        problems = []
        opened: dict[int, list[str]] = {}
        finalized: dict[int, list[float]] = {}
        for entry in self.service.journal.entries():
            if entry.get("status") == STATUS_OPENED:
                opened[entry["round_id"]] = list(entry["submission_ids"])
            elif entry.get("status") == STATUS_FINALIZED:
                finalized[entry["round_id"]] = entry.get("aggregate")
        round_of = {sid: rid for rid, sids in opened.items() for sid in sids}
        for unit in units:
            rounds = {round_of.get(sid) for sid in unit.submitted}
            for round_id in rounds:
                sids = opened.get(round_id, [])
                if round_id is None or round_id not in finalized:
                    problems.append(f"round {round_id}: not finalized in the journal")
                    unit.failed += 1
                    continue
                if any(sid not in unit.submitted for sid in sids):
                    problems.append(f"round {round_id}: mixes submissions of two waves")
                    unit.failed += 1
                    continue
                problem = check_aggregate(
                    self.codec,
                    np.asarray(finalized[round_id], dtype=np.float64),
                    [unit.submitted[sid][1] for sid in sids],
                )
                if problem:
                    problems.append(f"round {round_id}: {problem}")
                    unit.failed += 1
            for sid, (tenant, _vector) in unit.submitted.items():
                state = self.service.tenant(tenant).queue.state_of(sid)
                if state != STATE_APPLIED:
                    problems.append(f"submission {sid} is {state}, not applied")
                    unit.failed += 1
        try:
            self.service.audit.verify_chain()
        except ValueError as exc:
            problems.append(f"audit chain: {exc}")
        return problems

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


# ------------------------------------------------------------------ catalogue


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed units per second of ``--seconds`` on the reference host
    #: (2 vCPU), counted over all repetitions of a measured run.
    units_per_second: float
    #: Enough units for the traced run's p99s over >= 1,000 calls.
    min_traced_units: int

    def units(self, seconds: int, repeats: int) -> int:
        """Units in each of a measured run's ``repeats`` repetitions."""
        return max(1, round(seconds * self.units_per_second / repeats))

    def traced_units(self, seconds: int, repeats: int) -> int:
        return max(self.min_traced_units, self.units(seconds, repeats))

    def storage(self):
        """The storage semantics the workload runs under."""
        return tmpfs_fsync() if self.name == "service-disk" else nullcontext()

    def build(self, seed: int, state_root: str, tag: str):
        if self.name == "service-disk":
            return ServiceSystem(
                seed, os.path.join(state_root, f"{self.name}-{os.getpid()}-{tag}")
            )
        return RoundsSystem(seed, grouped=self.name == "rounds-grouped")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rounds-flat", units_per_second=0.6, min_traced_units=4),
        Workload("rounds-grouped", units_per_second=0.6, min_traced_units=5),
        Workload("service-disk", units_per_second=0.45, min_traced_units=8),
    )
}
