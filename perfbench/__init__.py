"""End-to-end, layer-attributed benchmark of the ``repro`` package.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``perfbench/README.md``
documents the workloads, the metric catalog and the tracing model.
"""
