"""The journey benchmark (ISSUE 11, ROADMAP item 1).

Five closed-loop workloads over a 4-server naplet space on loopback TCP,
six end-to-end metrics from an untraced run and the per-layer metrics
from a traced run.  ``BENCHMARK.json`` at the repo root is the contract;
``README.md`` here says why each workload and metric exists.

Run ``python -m benchmarks.journey --seed N`` from the repo root.
"""
