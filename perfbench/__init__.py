"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
