"""The repository benchmark: seeded workloads, output oracles and a traced
per-layer breakdown.  Run it with ``python3 perfbench/run.py --help``; the
metrics and workloads are described in ``perfbench/README.md``."""
