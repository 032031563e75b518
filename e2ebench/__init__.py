"""End-to-end benchmark of the pylclint checker.

Run one workload with::

    python3 e2ebench/run.py --workload cli-db-edit --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same inputs through wrapped entry points and prints the per-layer
metrics. ``workloads.json`` next to this file records why each workload
exists, its input size, and which end-to-end metric each layer metric
should move.
"""
