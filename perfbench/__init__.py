"""Steady end-to-end and per-layer benchmark for the Glimmer reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload rounds-flat --seed 1 --seconds 20 --trace 0

See ``perfbench/NOTES.md`` for the workloads, the metrics and the noise
findings that shaped them.
"""
