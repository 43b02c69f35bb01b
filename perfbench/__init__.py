"""Repository benchmark: domain pipelines from raw source to verified shards.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``BENCHMARK.json`` at the repository root declares the
workloads and the metrics printed.  See ``perfbench/README.md``.
"""
