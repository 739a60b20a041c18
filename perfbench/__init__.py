"""Benchmark for gwqap; run it with ``python3 perfbench/run.py --help``."""
