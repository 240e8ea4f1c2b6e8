"""HTM temporal memory: learns sequences over active-column SDRs.

A compact but faithful implementation of the temporal-memory algorithm:
columns contain ``cells_per_column`` cells; distal segments on each cell
learn to recognize sets of previously-active cells. A column whose
activation was predicted activates only its predicted cells; an unpredicted
column *bursts* (all cells activate) and grows a new segment on a
best-matching or least-used cell.

The instantaneous anomaly score — the quantity HTM-AD thresholds — is the
fraction of currently active columns that were **not** predicted:

    anomaly = |active - predicted| / |active|
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TemporalMemory", "Segment"]


@dataclass
class Segment:
    """A distal dendrite segment: presynaptic cell ids -> permanences."""

    cell: int
    synapses: dict[int, float] = field(default_factory=dict)

    def active_potential(self, active_cells: set[int]) -> int:
        """Count synapses (any permanence) to currently active cells."""
        return sum(1 for presynaptic in self.synapses if presynaptic in active_cells)

    def active_connected(self, active_cells: set[int], threshold: float) -> int:
        """Count connected synapses to currently active cells."""
        return sum(
            1
            for presynaptic, permanence in self.synapses.items()
            if permanence >= threshold and presynaptic in active_cells
        )


class TemporalMemory:
    def __init__(
        self,
        n_columns: int,
        cells_per_column: int = 8,
        activation_threshold: int = 10,
        learning_threshold: int = 7,
        initial_permanence: float = 0.3,
        permanence_threshold: float = 0.5,
        permanence_increment: float = 0.1,
        permanence_decrement: float = 0.05,
        max_new_synapses: int = 16,
        seed: int | None = None,
    ):
        if cells_per_column < 1:
            raise ValueError("cells_per_column must be >= 1")
        if learning_threshold > activation_threshold:
            raise ValueError("learning_threshold must be <= activation_threshold")
        self.n_columns = n_columns
        self.cells_per_column = cells_per_column
        self.activation_threshold = activation_threshold
        self.learning_threshold = learning_threshold
        self.initial_permanence = initial_permanence
        self.permanence_threshold = permanence_threshold
        self.permanence_increment = permanence_increment
        self.permanence_decrement = permanence_decrement
        self.max_new_synapses = max_new_synapses
        self._rng = np.random.default_rng(seed)
        self.segments: list[Segment] = []
        self._segments_by_cell: dict[int, list[Segment]] = {}
        self.active_cells: set[int] = set()
        self.winner_cells: set[int] = set()
        self.predicted_cells: set[int] = set()

    # -- cell/column arithmetic -----------------------------------------
    def column_of(self, cell: int) -> int:
        return cell // self.cells_per_column

    def cells_of(self, column: int) -> range:
        start = column * self.cells_per_column
        return range(start, start + self.cells_per_column)

    # -- main step -------------------------------------------------------
    def compute(self, active_columns: np.ndarray, learn: bool = True) -> float:
        """Advance one timestep; returns the instantaneous anomaly score."""
        active_columns = np.asarray(active_columns, dtype=bool)
        if active_columns.shape != (self.n_columns,):
            raise ValueError(f"expected ({self.n_columns},) column SDR; got {active_columns.shape}")
        column_ids = np.flatnonzero(active_columns)
        prev_active = self.active_cells
        prev_winner = self.winner_cells

        predicted_columns = {self.column_of(cell) for cell in self.predicted_cells}
        n_active = len(column_ids)
        unpredicted = sum(1 for column in column_ids if column not in predicted_columns)
        anomaly = unpredicted / n_active if n_active else 0.0

        next_active: set[int] = set()
        next_winner: set[int] = set()
        for column in column_ids:
            predicted_here = [
                cell for cell in self.cells_of(column) if cell in self.predicted_cells
            ]
            if predicted_here:
                next_active.update(predicted_here)
                next_winner.update(predicted_here)
                if learn:
                    for cell in predicted_here:
                        for segment in self._matching_segments(cell, prev_active):
                            self._reinforce(segment, prev_active)
            else:
                # Burst: all cells activate; grow a segment on the
                # best-matching cell (or the least-used one).
                next_active.update(self.cells_of(column))
                winner = self._select_burst_winner(column, prev_active)
                next_winner.add(winner)
                if learn and prev_winner:
                    segment = self._best_matching_segment(winner, prev_active)
                    if segment is None:
                        segment = self._create_segment(winner)
                    self._reinforce(segment, prev_active)
                    self._grow_synapses(segment, prev_winner)

        if learn:
            # Punish segments that predicted columns that did not activate.
            for cell in self.predicted_cells:
                if self.column_of(cell) not in set(column_ids):
                    for segment in self._matching_segments(cell, prev_active):
                        for presynaptic in list(segment.synapses):
                            if presynaptic in prev_active:
                                segment.synapses[presynaptic] = max(
                                    0.0, segment.synapses[presynaptic] - self.permanence_decrement
                                )

        self.active_cells = next_active
        self.winner_cells = next_winner
        self.predicted_cells = self._compute_predictions(next_active)
        return anomaly

    # -- internals --------------------------------------------------------
    def _compute_predictions(self, active_cells: set[int]) -> set[int]:
        predicted: set[int] = set()
        for segment in self.segments:
            if segment.active_connected(active_cells, self.permanence_threshold) >= self.activation_threshold:
                predicted.add(segment.cell)
        return predicted

    def _matching_segments(self, cell: int, active_cells: set[int]) -> list[Segment]:
        return [
            segment
            for segment in self._segments_by_cell.get(cell, [])
            if segment.active_potential(active_cells) >= self.learning_threshold
        ]

    def _best_matching_segment(self, cell: int, active_cells: set[int]) -> Segment | None:
        best: Segment | None = None
        best_overlap = self.learning_threshold - 1
        for segment in self._segments_by_cell.get(cell, []):
            overlap = segment.active_potential(active_cells)
            if overlap > best_overlap:
                best_overlap = overlap
                best = segment
        return best

    def _select_burst_winner(self, column: int, prev_active: set[int]) -> int:
        cells = list(self.cells_of(column))
        best_cell = None
        best_overlap = self.learning_threshold - 1
        for cell in cells:
            segment = self._best_matching_segment(cell, prev_active)
            if segment is not None:
                overlap = segment.active_potential(prev_active)
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_cell = cell
        if best_cell is not None:
            return best_cell
        # Least-used cell breaks ties pseudo-randomly.
        usage = [(len(self._segments_by_cell.get(cell, [])), self._rng.random(), cell) for cell in cells]
        return min(usage)[2]

    def _create_segment(self, cell: int) -> Segment:
        segment = Segment(cell=cell)
        self.segments.append(segment)
        self._segments_by_cell.setdefault(cell, []).append(segment)
        return segment

    def _reinforce(self, segment: Segment, active_cells: set[int]) -> None:
        for presynaptic in list(segment.synapses):
            if presynaptic in active_cells:
                segment.synapses[presynaptic] = min(
                    1.0, segment.synapses[presynaptic] + self.permanence_increment
                )
            else:
                segment.synapses[presynaptic] = max(
                    0.0, segment.synapses[presynaptic] - self.permanence_decrement
                )

    def _grow_synapses(self, segment: Segment, winner_cells: set[int]) -> None:
        candidates = [cell for cell in winner_cells if cell not in segment.synapses]
        if not candidates:
            return
        budget = self.max_new_synapses - segment.active_potential(winner_cells)
        if budget <= 0:
            return
        chosen = self._rng.permutation(len(candidates))[:budget]
        for i in chosen:
            segment.synapses[candidates[i]] = self.initial_permanence
