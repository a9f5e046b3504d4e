"""perfbench — the end-to-end and per-layer benchmark of the hFAD engine.

See ``perfbench/README.md``; the contract with the driver is
``BENCHMARK.json`` at the repository root.
"""
