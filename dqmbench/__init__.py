"""Seeded end-to-end and per-layer benchmark of dqm_ray.

Run from the repository root as ``python3 dqmbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see README.md in this
directory for the workloads, metrics and layer mapping.
"""
