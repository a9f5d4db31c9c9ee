"""The sniffer's benchmark: three workloads, end-to-end and per-layer.

Run one workload with ``python3 sniffbench/run.py --workload NAME``;
``sniffbench/README.md`` lists the workloads, the metrics, and which
end-to-end metric each layer metric should move.
"""
