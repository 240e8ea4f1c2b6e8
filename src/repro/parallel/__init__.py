"""In-order fan-in for the serve supervisor.

:class:`SequencedMerger` releases results that complete out of order in
strict submission order, so side effects (alarm pushes) applied at
fan-in stay byte-identical to a serial run. Scoring itself has one path,
:meth:`repro.workflow.PredictionPipeline.execute`, which coalesces a
whole batch into one forward; the serve supervisor is the only owner of
process parallelism.
"""

from .pool import SequencedMerger

__all__ = ["SequencedMerger"]
