"""A minimal column-oriented dataframe (pandas substitute).

The prediction pipeline (paper Figure 2, step 3) "constructs a dataframe
from this monitoring data, appending the relevant EM" — Table 2 shows the
layout: contextual features (WMs + PMs), environment metadata columns, the
RU-history lists, and the observed RU. pandas is unavailable offline, so
:class:`Frame` provides the small slice of functionality the workflow
needs: typed columns.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Frame"]


class Frame:
    """Immutable-length columnar table. Columns are numpy arrays."""

    def __init__(self, columns: Mapping[str, Sequence] | None = None):
        self._columns: dict[str, np.ndarray] = {}
        self._length = 0
        if columns:
            for name, values in columns.items():
                self[name] = values

    # -- core accessors ---------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self._length

    @property
    def shape(self) -> tuple[int, int]:
        return (self._length, len(self._columns))

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; available: {self.columns}") from None

    def __setitem__(self, name: str, values: Sequence) -> None:
        array = np.asarray(values)
        if array.ndim != 1:
            raise ValueError(f"column {name!r} must be 1-dimensional; got shape {array.shape}")
        if self._columns and len(array) != self._length:
            raise ValueError(
                f"column {name!r} has length {len(array)}; frame has {self._length} rows"
            )
        if not self._columns:
            self._length = len(array)
        self._columns[name] = array

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame(rows={self._length}, columns={self.columns})"
