"""Feature preprocessing: scalers and categorical label encoding.

The prediction pipeline (paper Figure 2, step 3) standardizes contextual
features before they reach the FNN, and encodes EM strings such as
``Testbed_15`` or ``Build_s10`` into integer ids for the embedding lookup
tables (with an explicit *unknown* id for values absent from training,
§3.1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["StandardScaler", "LabelEncoder"]


class StandardScaler:
    """Standardize features to zero mean, unit variance (per column)."""

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("StandardScaler expects a 2-d matrix")
        if len(X) == 0:
            raise ValueError("cannot fit scaler on empty data")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        # Constant columns scale to zero after centering; avoid dividing by 0.
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.mean_.shape[0]:
            raise ValueError(f"expected {self.mean_.shape[0]} features, got {X.shape[-1]}")
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


class LabelEncoder:
    """Map string labels to integer ids, reserving an id for unknowns.

    Ids ``0 .. n_classes-1`` index the values seen in ``fit``; the id
    ``n_classes`` (== :attr:`unknown_id`) is returned for any value not seen
    during fitting — mirroring the unknown-embedding row of §3.1.
    """

    def __init__(self):
        self.classes_: list[str] | None = None
        self._index: dict[str, int] = {}

    def fit(self, values) -> "LabelEncoder":
        seen: dict[str, None] = {}
        for value in values:
            seen.setdefault(str(value))
        self.classes_ = sorted(seen)
        self._index = {value: i for i, value in enumerate(self.classes_)}
        return self

    @classmethod
    def from_classes(cls, classes: list[str]) -> "LabelEncoder":
        """Rebuild a fitted encoder from a stored class list (deserialization)."""
        if len(classes) != len(set(classes)):
            raise ValueError("classes must be unique")
        encoder = cls()
        encoder.classes_ = list(classes)
        encoder._index = {value: i for i, value in enumerate(encoder.classes_)}
        return encoder

    def extend(self, values) -> list[str]:
        """Append previously unseen values as new classes.

        Existing ids stay stable; new values get the next ids in first-seen
        order (the unknown id shifts up accordingly). Returns the list of
        newly added classes. Used for incremental model retraining when new
        environments appear (§4.3).
        """
        if self.classes_ is None:
            raise RuntimeError("encoder is not fitted")
        added: list[str] = []
        for value in values:
            value = str(value)
            if value not in self._index:
                self._index[value] = len(self.classes_)
                self.classes_.append(value)
                added.append(value)
        return added

    @property
    def unknown_id(self) -> int:
        if self.classes_ is None:
            raise RuntimeError("encoder is not fitted")
        return len(self.classes_)

    @property
    def vocabulary_size(self) -> int:
        """Number of ids including the unknown slot."""
        return self.unknown_id + 1

    def transform(self, values) -> np.ndarray:
        return np.array(self.codes(values), dtype=np.int64)

    def codes(self, values) -> list[int]:
        """:meth:`transform` as a list, for callers that build one array
        from several encoders."""
        if self.classes_ is None:
            raise RuntimeError("encoder is not fitted")
        unknown = self.unknown_id
        return [self._index.get(str(v), unknown) for v in values]

    def fit_transform(self, values) -> np.ndarray:
        return self.fit(values).transform(values)
