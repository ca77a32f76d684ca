"""Benchmark for threefold: four certification workloads, end-to-end
metrics from an untraced run and per-layer metrics from a traced run.

Run it from the repository root with ``python3 perfbench/run.py``; see
perfbench/README.md for the workloads, metrics and oracles.
"""
