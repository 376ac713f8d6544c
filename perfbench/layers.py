"""Per-layer metrics from a traced run's spans and round reports.

Counts and self times are summed over the traced units and divided by
their number, so each figure is *per round* on ``rounds-*`` and *per
wave* (four tenant rounds) on ``service-disk``.
"""

from __future__ import annotations

from perfbench.spans import AMOUNT, END, KEY, NAME, PARENT, START, self_times
from perfbench.stats import percentile


def _by_name(spans: list[list]) -> dict[str, dict]:
    totals: dict[str, dict] = {}
    own = self_times(spans)
    for index, span in enumerate(spans):
        entry = totals.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "amount": 0, "durations": []}
        )
        entry["calls"] += 1
        entry["self_s"] += own[index]
        entry["amount"] += span[AMOUNT]
        entry["durations"].append(span[END] - span[START])
    return totals


def phase_coverage(spans: list[list], units) -> dict[str, float]:
    """Share of each runner-driven round's wall that its phase spans cover.

    Only units the runner stepped stage by stage (``rounds-*``) have phase
    spans; service rounds interleave on one loop and are left out.
    """
    covered: dict[str, float] = {}
    for span in spans:
        if span[NAME].startswith("runtime.phase."):
            covered[span[KEY]] = covered.get(span[KEY], 0.0) + span[END] - span[START]
    walls = {
        f"r{report.round_id}": unit.wall
        for unit in units if unit.steps
        for report in unit.reports
    }
    return {key: covered.get(key, 0.0) / wall for key, wall in walls.items()}


def layer_metrics(tracer, traced_units, plain_units) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    spans = tracer.spans
    n = len(traced_units)
    totals = _by_name(spans)
    empty = {"calls": 0, "self_s": 0.0, "amount": 0, "durations": []}

    def layer(name: str) -> dict:
        return totals.get(name, empty)

    def calls(name: str) -> tuple[float, str]:
        return layer(name)["calls"] / n, "count"

    def self_ms(name: str) -> tuple[float, str]:
        return layer(name)["self_s"] * 1e3 / n, "ms"

    def per_unit_ms(name: str) -> tuple[float, str]:
        return sum(layer(name)["durations"]) * 1e3 / n, "ms"

    def call_ms(name: str, q: float) -> tuple[float, str]:
        durations = layer(name)["durations"]
        return (percentile(durations, q) * 1e3 if durations else 0.0), "ms"

    reports = [report for unit in traced_units for report in unit.reports]

    def report_sum(field: str) -> tuple[float, str]:
        return sum(getattr(report, field, 0) for report in reports) / n, "count"

    subgroups = sum(getattr(report, "subgroups_aggregated", 0) for report in reports)
    put_spans = {
        index for index, span in enumerate(spans) if span[NAME] == "service.storage_put"
    }
    put_bytes = sum(
        span[AMOUNT] for span in spans
        if span[NAME] == "service.fsync" and span[PARENT] in put_spans
    )
    roots = sum(span[END] - span[START] for span in spans if span[PARENT] < 0)
    traced_wall = sum(unit.wall for unit in traced_units)
    plain_wall = sum(unit.wall for unit in plain_units)

    metrics = {
        "runtime.open_ms": per_unit_ms("runtime.open"),
        "runtime.provision_ms_p50": call_ms("runtime.provision", 50),
        "runtime.provision_ms_p99": call_ms("runtime.provision", 99),
        "runtime.collect_ms_p50": call_ms("runtime.collect", 50),
        "runtime.collect_ms_p99": call_ms("runtime.collect", 99),
        "runtime.finalize_ms": per_unit_ms("runtime.finalize"),
        "runtime.retries": report_sum("retries"),
        "sgx.quote_verify.calls": calls("sgx.quote_verify"),
        "sgx.quote_verify.self_ms": self_ms("sgx.quote_verify"),
        "sgx.ecall.calls": calls("sgx.ecall"),
        "sgx.ecall.self_ms": self_ms("sgx.ecall"),
        "crypto.dh_power.calls": calls("crypto.dh_power"),
        "crypto.dh_power.self_ms": self_ms("crypto.dh_power"),
        "crypto.table_builds": calls("crypto.table_build"),
        "crypto.schnorr.calls": calls("crypto.schnorr"),
        "crypto.schnorr.self_ms": self_ms("crypto.schnorr"),
        "crypto.cipher.calls": calls("crypto.cipher"),
        "crypto.cipher.bytes": (layer("crypto.cipher")["amount"] / n, "B"),
        "crypto.cipher.self_ms": self_ms("crypto.cipher"),
        "crypto.commitments.calls": calls("crypto.commitments"),
        "crypto.commitments.self_ms": self_ms("crypto.commitments"),
        "crypto.drbg.blocks": calls("crypto.drbg"),
        "crypto.drbg.bytes": (layer("crypto.drbg")["amount"] / n, "B"),
        "crypto.drbg.self_ms": self_ms("crypto.drbg"),
        "crypto.mask_expand.calls": calls("crypto.mask_expand"),
        "crypto.mask_expand.self_ms": self_ms("crypto.mask_expand"),
        "crypto.mask_expand.per_group": (
            layer("crypto.mask_expand")["calls"] / subgroups if subgroups else 0.0, "ratio"
        ),
        "network.messages": report_sum("messages_sent"),
        "network.bytes": (report_sum("bytes_on_wire")[0], "B"),
        "network.deliver.self_ms": self_ms("network.deliver"),
        "core.cloud_submit.calls": calls("core.cloud_submit"),
        "core.cloud_submit.self_ms": self_ms("core.cloud_submit"),
        "core.cloud_finalize.self_ms": self_ms("core.cloud_finalize"),
        "core.masks_repaired": report_sum("masks_repaired"),
        "scale.fold.calls": calls("scale.fold"),
        "scale.fold.self_ms": self_ms("scale.fold"),
        "scale.subgroup_repairs": report_sum("subgroup_dropout_repairs"),
        "service.queue_submit.self_ms": self_ms("service.queue_submit"),
        "service.queue_take.self_ms": self_ms("service.queue_take"),
        "service.queue_mark.self_ms": self_ms("service.queue_mark"),
        "service.audit.calls": calls("service.audit"),
        "service.audit.self_ms": self_ms("service.audit"),
        "service.journal.calls": calls("service.journal"),
        "service.journal.self_ms": self_ms("service.journal"),
        "service.storage_put.calls": calls("service.storage_put"),
        "service.storage_put.bytes": (put_bytes / n, "B"),
        "service.storage_put.self_ms": self_ms("service.storage_put"),
        "service.storage_append.calls": calls("service.storage_append"),
        "service.storage_append.self_ms": self_ms("service.storage_append"),
        "service.storage_scan.entries": (
            (layer("service.storage_append")["amount"]
             + layer("service.storage_read")["amount"]) / n,
            "count",
        ),
        "service.fsync.calls": calls("service.fsync"),
        "service.round.self_ms": self_ms("service.round"),
        "py.gc_ms": (tracer.gc_seconds * 1e3 / n, "ms"),
        "bench.driver.self_ms": ((traced_wall - roots) * 1e3 / n, "ms"),
        "bench.trace_overhead_pct": ((traced_wall / plain_wall - 1.0) * 100.0, "%"),
    }
    return metrics
