"""Private machinery of :mod:`repro.serve` — not a public surface.

Everything importable from here (admission, micro-batching, the worker
supervisor) may change shape without notice. Outside code
goes through :mod:`repro.serve`'s curated ``__all__``; the REP010 lint
rule enforces the boundary.
"""
