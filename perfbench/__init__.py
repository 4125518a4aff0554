"""Benchmark of the asianfb command line: see perfbench/README.md."""
