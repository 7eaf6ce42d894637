"""One layer-attributed performance benchmark for the CA-CQR2 reproduction.

``python -m benchmarks.perf run --seed S`` runs the ``factor``,
``simulate``, ``plan`` and ``serve`` workloads, each in a fresh child
process, and prints their end-to-end metrics; ``--trace 1`` prints the
per-layer split instead; ``compare PARENT_DIR CHANGE_DIR`` judges two
sets of runs.  See ``README.md`` in this directory.
"""
