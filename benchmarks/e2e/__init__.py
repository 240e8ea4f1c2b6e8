"""End-to-end benchmark for the Env2Vec testing loop.

``run.py`` is the entry point; ``README.md`` describes the workloads,
metrics, layer trace and how to compare two sets of runs.
"""
