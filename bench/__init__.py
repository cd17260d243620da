"""The repository's benchmark: four workloads over the screened-classification
stack, seven end-to-end metrics, per-layer attribution measured from outside.

See ``bench/README.md``; the contract lives in ``/BENCHMARK.json``.
"""
