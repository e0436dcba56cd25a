"""Benchmark of the cityalloc pipeline; see README.md in this directory."""
