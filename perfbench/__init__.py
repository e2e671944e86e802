"""Host-time benchmark of the EXION reproduction.

``python -m perfbench`` runs four workloads against the public names of
``repro`` and prints every metric with its unit; ``BENCHMARK.json`` at the
repository root is the contract the numbers are judged by. See
``perfbench/README.md``.
"""
