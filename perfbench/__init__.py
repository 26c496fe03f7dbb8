"""End-to-end and per-layer benchmark of the ``repro`` package.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``README.md`` in
this directory for the workloads, the metrics and what each layer metric
should move.
"""
