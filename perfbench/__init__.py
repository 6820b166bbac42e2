"""Benchmark harness for defsim: workloads, span tracing and metrics.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads and metric names.
"""
