"""Environment embeddings (paper §3.1, "Embeddings for environments").

For each EM field (testbed, SUT, testcase, build) there is a lookup table
whose rows are 10-dimensional embeddings, one per field value seen in
training, plus an *unknown* row — "similar to handling unknown words in
NLP, the lookup table also contains an additional unknown vector/embedding
to deal with an unknown environment that has not appeared in the training
data before".

Because each field has its own table, an environment never seen as a whole
can still be embedded by *mix-and-matching* the per-field embeddings it
shares with known environments (§4.3, Figure 5) — the basis for testing
previously unseen environments.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..data.environment import EM_FIELDS, Environment
from ..ml.preprocessing import LabelEncoder
from ..nn import ops
from ..nn.init import ensure_rng
from ..nn.layers import Embedding, Module
from ..nn.tensor import Tensor, apply_op

__all__ = ["EnvironmentVocabulary", "EnvironmentEmbeddings"]

#: Scale of the noise added to ``<unk>`` when a grown table gets new rows.
GROWN_ROW_NOISE = 0.01

#: Most environments :meth:`EnvironmentVocabulary.encode` remembers: a
#: call whose new environments would grow the memo past this empties it.
ENCODE_MEMO_SIZE = 4096


class EnvironmentVocabulary:
    """Per-field label encoders over a training set of environments."""

    def __init__(self, fields: tuple[str, ...] = EM_FIELDS):
        if not fields:
            raise ValueError("need at least one EM field")
        self.fields = tuple(fields)
        self._encoders: dict[str, LabelEncoder] = {}
        self._clear_memo()

    def _clear_memo(self) -> None:
        #: environment -> its row of ``_memo_ids``, whose first
        #: ``len(_memo)`` rows are the id rows encoded so far
        self._memo: dict[Environment, int] = {}
        self._memo_ids = np.empty((ENCODE_MEMO_SIZE, len(self.fields)), dtype=np.int64)

    def fit(self, environments: list[Environment]) -> "EnvironmentVocabulary":
        if not environments:
            raise ValueError("cannot fit a vocabulary on zero environments")
        for field in self.fields:
            encoder = LabelEncoder()
            encoder.fit([getattr(env, field) for env in environments])
            self._encoders[field] = encoder
        self._clear_memo()
        return self

    def to_config(self) -> dict:
        """JSON-serializable snapshot of the fitted vocabulary."""
        self._require_fitted()
        return {
            "fields": list(self.fields),
            "classes": {field: self._encoders[field].classes_ for field in self.fields},
        }

    @classmethod
    def from_config(cls, config: dict) -> "EnvironmentVocabulary":
        vocabulary = cls(fields=tuple(config["fields"]))
        for field in vocabulary.fields:
            vocabulary._encoders[field] = LabelEncoder.from_classes(config["classes"][field])
        return vocabulary

    def vocabulary_sizes(self) -> dict[str, int]:
        """Per-field table sizes (known values + the unknown row)."""
        self._require_fitted()
        return {field: encoder.vocabulary_size for field, encoder in self._encoders.items()}

    def encode(self, environments: list[Environment]) -> np.ndarray:
        """Environments -> (n, n_fields) int64 id matrix.

        Every environment encoded is remembered with its id row until
        the next :meth:`fit` or :meth:`extend` (at most
        :data:`ENCODE_MEMO_SIZE` of them), so a served batch costs one
        hash per execution. Per-window callers pass runs of the same
        object (every window of an execution shares its EM tuple): a row
        whose environment *is* the previous row's reuses its id row
        without hashing. A call's new environments are label-encoded
        together, one transform per field, and the rows are gathered
        back with one fancy index.
        """
        self._require_fitted()
        memo = self._memo
        size = known = len(memo)
        misses: list[Environment] = []
        slots: list[int] = []
        previous, slot = object(), 0
        ids = self._memo_ids
        try:
            for env in environments:
                if env is not previous:
                    previous = env
                    # One hash per run, hit or miss: a miss takes the next row.
                    slot = memo.setdefault(env, size)
                    if slot == size:
                        misses.append(env)
                        size += 1
                slots.append(slot)
            if misses:
                new = np.array(
                    [
                        self._encoders[field].codes([getattr(env, field) for env in misses])
                        for field in self.fields
                    ],
                    dtype=np.int64,
                ).T
                if size <= len(ids):
                    ids[known:size] = new
                else:
                    ids = np.concatenate([ids[:known], new])
                    self._clear_memo()
        except BaseException:
            self._clear_memo()  # misses entered the memo before their rows
            raise
        return ids[np.array(slots, dtype=np.intp)]

    def encode_one(self, environment: Environment) -> np.ndarray:
        return self.encode([environment])[0]

    def is_known(self, environment: Environment) -> dict[str, bool]:
        """Which EM fields of this environment were seen in training.

        §6: an environment whose *testbed* never appeared cannot be
        meaningfully embedded; this lets callers check before trusting
        predictions.
        """
        self._require_fitted()
        ids = self.encode_one(environment)
        return {
            field: int(ids[i]) != self._encoders[field].unknown_id
            for i, field in enumerate(self.fields)
        }

    def extend(self, environments: list[Environment]) -> dict[str, list[str]]:
        """Register new EM values; returns the per-field lists of additions.

        Existing ids are preserved (embedding rows stay valid); the unknown
        id shifts to stay last. Pair with
        :meth:`EnvironmentEmbeddings.grow_tables` when extending a trained
        model for incremental retraining (§4.3).
        """
        self._require_fitted()
        # A value encoded as <unk> so far may get its own id now.
        self._clear_memo()
        return {
            field: self._encoders[field].extend(
                getattr(env, field) for env in environments
            )
            for field in self.fields
        }

    def _require_fitted(self) -> None:
        if not self._encoders:
            raise RuntimeError("vocabulary is not fitted; call fit() first")


class EnvironmentEmbeddings(Module):
    """The per-field lookup tables; output is the concatenation C (eq. 1).

    ``unknown_dropout`` randomly replaces a fraction of ids with the
    unknown id *during training only*. This trains the ``<unk>`` row to a
    sensible field-average embedding, so a genuinely new value at test time
    (e.g. the new build version under test, which by definition never
    appeared in training) degrades gracefully instead of hitting an
    arbitrary random vector — the embedding-table analogue of how NLP
    models train their ``<unk>`` token.
    """

    def __init__(
        self,
        vocabulary: EnvironmentVocabulary,
        embedding_dim: int = 10,
        unknown_dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if not 0.0 <= unknown_dropout < 1.0:
            raise ValueError("unknown_dropout must be in [0, 1)")
        rng = ensure_rng(rng)
        self.vocabulary = vocabulary
        self.embedding_dim = embedding_dim
        self.unknown_dropout = unknown_dropout
        self._rng = rng
        sizes = vocabulary.vocabulary_sizes()
        self.tables = {
            field: Embedding(sizes[field], embedding_dim, rng=rng) for field in vocabulary.fields
        }

    @property
    def output_dim(self) -> int:
        """Dimensionality of C = [ec^1, ..., ec^k]."""
        return self.embedding_dim * len(self.vocabulary.fields)

    def forward(self, ids: np.ndarray) -> Tensor:
        """(n, n_fields) id matrix -> (n, output_dim) concatenated embeddings.

        One tape node for all fields: :meth:`lookup` forward,
        :meth:`table_grads` backward.
        """
        c, effective = self.lookup(ids)
        tables = [self.tables[field].weight for field in self.vocabulary.fields]
        return apply_op(tables, c, lambda grad: self.table_grads(grad, effective))

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``C`` for an ``(n, n_fields)`` id matrix, and the effective ids.

        In training mode with ``unknown_dropout > 0`` (grad mode does not
        matter) each field's ids are replaced by that field's unknown id
        with probability ``unknown_dropout``: one ``rng.random(n)`` mask
        per field, in field order. Ids are range-checked after replacement
        (the first bad field raises ``IndexError``), and gathered by
        :func:`repro.nn.ops.stacked_embedding_forward`, the compiled
        plan's gather too. The effective ids are what :meth:`table_grads`
        needs for the backward.
        """
        ids = np.asarray(ids, dtype=np.int64)
        fields = self.vocabulary.fields
        if ids.ndim != 2 or ids.shape[1] != len(fields):
            raise ValueError(f"expected ids of shape (n, {len(fields)}); got {ids.shape}")
        stacked, offsets, sizes = self.stacked_tables()
        if self.training and self.unknown_dropout > 0.0:
            # One draw of (n_fields, n) is the per-field rng.random(n) calls
            # in field order, value for value.
            masks = self._rng.random((len(fields), len(ids))) < self.unknown_dropout
            ids = np.where(masks.T, sizes.astype(np.int64) - 1, ids)
        return ops.stacked_embedding_forward(stacked, offsets, sizes, ids), ids

    def table_grads(self, grad_c: np.ndarray, ids: np.ndarray) -> list[np.ndarray]:
        """Per-table gradients, in field order, of ``C`` looked up at ``ids``.

        One :func:`repro.nn.ops.embedding_backward` over the tables stacked
        row-wise: each ``(row, column)`` bin still sums its contributions in
        batch order, so every table's gradient equals a per-field scatter
        bit for bit.
        """
        bounds = self._row_bounds()
        (full,) = ops.embedding_backward(
            grad_c.reshape(-1, self.embedding_dim),
            {"shape": (bounds[-1], self.embedding_dim), "ids": (ids + bounds[:-1]).reshape(-1)},
        )
        return [full[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]

    def _row_bounds(self) -> np.ndarray:
        """Where each field's table starts within the tables stacked
        row-wise, plus their total row count."""
        sizes = [self.tables[field].num_embeddings for field in self.vocabulary.fields]
        return np.array([0, *accumulate(sizes)])

    def stacked_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The field tables stacked row-wise in ``vocabulary.fields``
        order, as one fresh array, with each field's first row in it and
        its row count (uint64): the arguments of
        :func:`repro.nn.ops.stacked_embedding_forward`. The compiled plan
        keeps one such copy as its snapshot of the tables.
        """
        bounds = self._row_bounds()
        stacked = np.concatenate([self.tables[field].weight.data for field in self.vocabulary.fields])
        return stacked, bounds[:-1], np.diff(bounds).astype(np.uint64)

    def grow_tables(self, added: dict[str, list[str]]) -> None:
        """Expand the lookup tables after a vocabulary extension.

        For each field with ``m`` new values, ``m`` rows are inserted just
        before the unknown row (which stays last, matching the extended
        encoder's id layout). New rows start from the trained ``<unk>``
        embedding plus :data:`GROWN_ROW_NOISE`-scaled noise — the best
        prior for a value we know nothing about — and then specialize
        during incremental retraining.
        """
        for field, new_values in added.items():
            if not new_values:
                continue
            table = self.tables[field]
            weights = table.weight.data
            unk_row = weights[-1]
            fresh = unk_row + GROWN_ROW_NOISE * self._rng.standard_normal(
                (len(new_values), self.embedding_dim)
            )
            table.weight.data = np.vstack([weights[:-1], fresh, unk_row[None, :]])
            table.num_embeddings = len(table.weight.data)
            expected = self.vocabulary.vocabulary_sizes()[field]
            if table.num_embeddings != expected:
                raise RuntimeError(
                    f"table for {field!r} has {table.num_embeddings} rows; "
                    f"vocabulary expects {expected}"
                )

    def embed_environments(self, environments: list[Environment]) -> np.ndarray:
        """Concatenated embedding matrix for analysis (e.g. Figure 6's PCA)."""
        ids = self.vocabulary.encode(environments)
        from ..nn.tensor import no_grad

        was_training = self.training
        self.eval()  # never apply unknown-dropout in analysis
        try:
            with no_grad():
                return self.forward(ids).numpy().copy()
        finally:
            if was_training:
                self.train()
