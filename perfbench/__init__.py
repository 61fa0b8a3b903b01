"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/CATALOGUE.md``
describes every workload and metric.
"""
