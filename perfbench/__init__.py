"""The DrDebug pipeline benchmark: four workloads, end-to-end and per layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in fresh processes and prints its metrics; see
``perfbench/README.md`` for the workloads, the metrics and how the
numbers are made steady.
"""
