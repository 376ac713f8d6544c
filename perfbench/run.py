"""Benchmark runner: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload rounds-flat --seed 1 --seconds 20 --trace 0

``--trace 0`` is a measured run: three times over, it sets the system up
from cold and times the same fixed count of units with nothing wrapped;
it reports the median set-up as ``setup_s`` and every end-to-end metric
over all three repetitions, scaled to the reference host speed that the
fixed pass of ``hostspeed`` reads between units.  ``--trace 1``
is the separate traced run: two identical systems step through the same
units in ABBA order, one bare and one with every layer seam wrapped, and
it prints the per-layer metrics plus the tracing overhead between them.
Either way every aggregate is checked, and the last line of standard
output is the JSON result.  The exit code is 0 only when the run is
correct; without the program's sources next to it the runner exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

#: Set-ups per measured run, each followed by the same timed units;
#: ``setup_s`` is the median set-up.
REPEATS = 3
#: A first timed unit slower than this multiple of the median of the
#: rest is the not-yet-warm pattern, and fails the run.
FIRST_UNIT_LIMIT = 1.75
#: Phase spans must cover this share of each traced round's wall.
PHASE_COVERAGE = 0.95


def _peak_rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _table_build_guard():
    from perfbench.spans import SEAMS, Tracer

    guard = Tracer()
    guard.install([seam for seam in SEAMS if seam.name == "crypto.table_build"])
    return guard


def _steady_state_problems(walls: list[float], builds: int) -> list[str]:
    problems = []
    if builds:
        problems.append(f"{builds} fixed-base table build(s) inside the timed window")
    if len(walls) > 1:
        rest = median(walls[1:])
        if walls[0] > FIRST_UNIT_LIMIT * rest:
            problems.append(
                f"first timed unit took {walls[0]:.3f} s against a "
                f"{rest:.3f} s median: the system was not warm"
            )
    return problems


def measured_run(workload, seed: int, seconds: int) -> dict:
    """Three cold set-ups, each followed by the same timed units, untraced.

    Every time is read against the host's speed: the fixed reference
    pass of ``hostspeed`` runs before and after each set-up and after
    every timed unit, and each set-up or unit is scaled by
    ``REFERENCE_PASS_S`` over the mean of the passes on either side of
    it, so its times read as on the reference host.
    """
    from repro.crypto import group_ops

    from perfbench.hostspeed import REFERENCE_PASS_S, host_pass

    count = workload.units(seconds, REPEATS)
    setups: list[float] = []
    repetitions: list[list] = []
    # (unit, scale) for every timed unit of every repetition.
    scaled: list[tuple] = []
    passes: list[float] = []
    problems: list[str] = []
    builds = 0
    for repeat in range(REPEATS):
        # Every set-up starts from cold process-wide caches, so each one
        # pays the same lazy table builds the first one did.
        group_ops.reset_tables()
        passes.append(host_pass())
        started = perf_counter()
        system = workload.build(seed, str(OUT / "state"), str(repeat))
        try:
            system.warm_up()
            took = perf_counter() - started
            passes.append(host_pass())
            setups.append(took * 2 * REFERENCE_PASS_S / (passes[-2] + passes[-1]))
            guard = _table_build_guard()
            units = []
            try:
                for index in range(count):
                    units.append(system.run_unit(index))
                    passes.append(host_pass())
                    scale = 2 * REFERENCE_PASS_S / (passes[-2] + passes[-1])
                    scaled.append((units[-1], scale))
            finally:
                guard.restore()
            builds += len(guard.spans)
            problems += system.verify(units)
        finally:
            system.close()
        del system  # let the collector free it before the next set-up
        gc.collect()
        repetitions.append(units)

    # A unit index's median over the repetitions: a cold system is slow
    # in all three, a host slow phase in one of them is not.
    typical = [median(unit.wall for unit in trio) for trio in zip(*repetitions)]
    problems += _steady_state_problems(typical, builds)
    units = [unit for unit, _ in scaled]
    contributions = sum(unit.contributions for unit in units)
    wall = sum(unit.wall * scale for unit, scale in scaled)
    applied = [s * 1e3 * scale for unit, scale in scaled for s in unit.applied_s]
    rounds = [w * 1e3 * scale for unit, scale in scaled for w in unit.round_walls]
    # Means, not medians: on service-disk every latency grows with the
    # history, so a median would read only the middle waves.
    metrics = {
        "clients_per_s": (contributions / wall, "1/s"),
        "round_ms_mean": (fmean(rounds), "ms"),
        "applied_ms_mean": (fmean(applied), "ms"),
        "wire_kib_per_client": (
            sum(unit.wire_bytes for unit in units) / max(1, contributions) / 1024, "KiB"
        ),
        "setup_s": (median(setups), "s"),
        "peak_rss_mib": (_peak_rss_mib(), "MiB"),
    }
    return _result(units, problems, metrics, {
        "units": f"{REPEATS} x {count}",
        "unscaled clients_per_s": contributions / sum(unit.wall for unit in units),
        "host_passes_ms": [round(s * 1e3, 1) for s in passes],
        "unit_walls_s": [[round(unit.wall, 3) for unit in units] for units in repetitions],
    })


def traced_run(workload, seed: int, seconds: int) -> dict:
    """Bare and traced twins over the same units, in ABBA order."""
    from repro.crypto import group_ops

    from perfbench.layers import layer_metrics, phase_coverage
    from perfbench.spans import SEAMS, Tracer

    group_ops.reset_tables()
    plain = traced = None
    tracer = Tracer()
    plain_units, traced_units = [], []
    try:
        plain = workload.build(seed, str(OUT / "state"), "plain")
        plain.warm_up()
        traced = workload.build(seed, str(OUT / "state"), "traced")
        traced.warm_up()
        for index in range(workload.traced_units(seconds, REPEATS)):
            for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
                if not use_tracer:
                    plain_units.append(plain.run_unit(index))
                    continue
                tracer.install(SEAMS)
                try:
                    traced_units.append(traced.run_unit(index, tracer=tracer))
                finally:
                    tracer.restore()
        problems = plain.verify(plain_units) + traced.verify(traced_units)
    finally:
        for system in (plain, traced):
            if system is not None:
                system.close()
    builds = sum(1 for span in tracer.spans if span[0] == "crypto.table_build")
    problems += _steady_state_problems([unit.wall for unit in traced_units], builds)
    for key, share in phase_coverage(tracer.spans, traced_units).items():
        if share < PHASE_COVERAGE:
            problems.append(f"phase spans cover {share:.1%} of round {key}'s wall")
    metrics = layer_metrics(tracer, traced_units, plain_units)
    _write_spans(tracer, workload.name, seed)
    return _result(plain_units + traced_units, problems, metrics, {
        "units": len(traced_units), "spans": len(tracer.spans),
    })


def _result(units, problems, metrics, details) -> dict:
    failed = sum(unit.failed for unit in units)
    if problems and not failed:
        failed = 1
    for problem in problems:
        print(f"problem: {problem}")
    for key, value in details.items():
        print(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    return {
        "correct": not problems and failed == 0,
        "attempted": sum(unit.attempted for unit in units),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def _write_spans(tracer, workload: str, seed: int) -> None:
    from perfbench.spans import self_times

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as handle:
        for span, own in zip(tracer.spans, self_times(tracer.spans)):
            name, start, end, parent, key, amount, _active = span
            handle.write(json.dumps({
                "name": name, "start": start, "end": end, "parent": parent,
                "key": key, "amount": amount, "self": own,
            }) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to run", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        with workload.storage():
            run = traced_run if args.trace else measured_run
            result = run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(OUT / "state", ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
