"""Benchmark of the driftbandits library; run it with ``python3 perfbench/run.py``."""
