"""Resilience: failure policies, chaos injection, and quarantine.

Live testbeds are lossy — scrapes stall, samples vanish, stores hiccup,
executions die mid-run. This package gives the workflow the vocabulary to
survive that:

- :mod:`~repro.resilience.errors` — the typed failure taxonomy
  (transient vs terminal);
- :mod:`~repro.resilience.policies` — :class:`Retry` (exponential backoff
  + jitter on a simulated clock) and a :class:`CircuitBreaker`, both
  emitting ``repro_resilience_*`` metrics;
- :mod:`~repro.resilience.chaos` — :class:`ChaosProfile`, the seeded
  infrastructure-fault simulator (dropped / duplicated / reordered /
  NaN-poisoned samples, transient TSDB failures, collector outages,
  divergent training days);
- :mod:`~repro.resilience.deadletter` — the :class:`DeadLetterStore`
  where quarantined executions are accounted for.

Import discipline: this package imports only :mod:`repro.obs` (and numpy).
The workflow imports *us*; the reverse edge would be a cycle.
"""

from .chaos import ChaosProfile, FlakyTSDB
from .deadletter import DeadLetterRecord, DeadLetterStore
from .errors import (
    CircuitOpen,
    DeadlineExceeded,
    ExecutionQuarantined,
    ResilienceError,
    RetryExhausted,
    TransientError,
    TransientTSDBError,
)
from .policies import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Clock,
    Retry,
    SimulatedClock,
)

__all__ = [
    # errors
    "ResilienceError",
    "TransientError",
    "TransientTSDBError",
    "ExecutionQuarantined",
    "CircuitOpen",
    "DeadlineExceeded",
    "RetryExhausted",
    # policies
    "Clock",
    "SimulatedClock",
    "Retry",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    # chaos
    "ChaosProfile",
    "FlakyTSDB",
    # quarantine
    "DeadLetterRecord",
    "DeadLetterStore",
]
