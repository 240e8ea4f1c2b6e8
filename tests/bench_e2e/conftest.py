"""Make the end-to-end benchmark package (``benchmarks/e2e``) importable."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    # Appended, not prepended: only the ``e2e`` package is new on the path,
    # so nothing the other tests import can be shadowed by it.
    sys.path.append(str(BENCHMARKS))
