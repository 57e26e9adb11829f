"""Incremental coverage tracking over the shared coverage grid.

Maintains the per-cell *multiplicity* (number of sensing disks containing
each grid sample point) and a running count of covered free cells.  An
update rasterises the moved sensors' old and new disks in one batched
:meth:`~repro.geometry.grid.CoverageGrid.rasterize_disks` pass, removes
the old hits and adds the new ones with ``np.subtract.at``/``np.add.at``,
and adjusts the covered count from the touched cells only.  Re-measuring
coverage after a period in which ``k`` sensors moved therefore costs
``O(k * disk_area / resolution^2)`` numpy work and no per-disk Python
loop.

Every path rasterises through the same kernel, whose per-cell predicate
is the float64 ``dx*dx + dy*dy <= r*r`` of a per-disk scan, and integer
multiplicity updates commute; the grid and the returned fraction are
therefore bit-identical to rasterising every disk from scratch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..field import Field

__all__ = ["IncrementalCoverage"]

_ONE = np.int32(1)


class IncrementalCoverage:
    """Tracks the coverage fraction of one (field, radius, resolution).

    The tracker rasterised the field's obstacle mask at construction;
    :attr:`field_version` records the ``Field.version`` it saw, so owners
    can rebuild it after an obstacle mutation.
    """

    def __init__(self, field: Field, sensing_range: float, resolution: float):
        self._radius = float(sensing_range)
        self.field_version = field.version
        grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
        self._grid = grid
        self._free = ~obstacle_mask
        self._free_total = int(self._free.sum())
        self._multiplicity = np.zeros(grid.num_points, dtype=np.int32)
        self._covered_free = 0
        self._positions: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, positions) -> int:
        """Bring the tracker in sync with the given ``(n, 2)`` positions.

        Diffs against the previously applied positions and re-rasterises
        only the disks of sensors that moved; a call in which none moved
        leaves the grid untouched.  A change in sensor count, or a call in
        which at least half the sensors moved, rebuilds the grid in one
        batch.  Returns the number of disks rasterised, removals included.
        """
        pts = np.asarray(positions, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        old = self._positions
        if old is not None and len(old) == len(pts):
            moved = np.flatnonzero((old != pts).any(axis=1))
            if moved.size == 0:
                return 0
            if 2 * moved.size < len(pts):
                return self._move(old, pts, moved)
        # A population change, or so many movers that re-rasterising all
        # n disks is cheaper than removing and re-adding 2 * moved.
        self._positions = pts.copy()
        return self._rebuild(pts)

    def _rebuild(self, pts: np.ndarray) -> int:
        if self._radius <= 0 or len(pts) == 0:
            self._multiplicity[:] = 0
            self._covered_free = 0
            return 0
        self._multiplicity = self._grid.multiplicity(pts, self._radius)
        self._covered_free = int(
            np.count_nonzero((self._multiplicity > 0) & self._free)
        )
        return len(pts)

    def _move(self, old: np.ndarray, pts: np.ndarray, moved: np.ndarray) -> int:
        """Remove the movers' old disks and add their new ones.

        Chunk by chunk, removals first: every removed cell was covered,
        so it turned uncovered exactly when it reads zero after the
        removals; an added cell turned covered exactly when it read zero
        before the additions.  Both sets are counted once per distinct
        free cell.
        """
        centers = np.concatenate((old[moved], pts[moved]))
        old[moved] = centers[moved.size :]
        if self._radius <= 0:
            return 0
        removals = moved.size
        mult = self._multiplicity
        for cells, hit in self._grid.rasterize_disks(centers, self._radius):
            split = np.count_nonzero(hit[:removals])
            removals = max(0, removals - len(hit))
            removed, added = cells[:split], cells[split:]
            np.subtract.at(mult, removed, _ONE)
            cleared = removed[mult[removed] == 0]
            fresh = added[mult[added] == 0]
            np.add.at(mult, added, _ONE)
            gained = self._distinct_free(fresh)
            self._covered_free += gained - self._distinct_free(cleared)
        return len(centers)

    def _distinct_free(self, cells: np.ndarray) -> int:
        cells = cells[self._free[cells]]
        cells.sort()
        if cells.size < 2:
            return cells.size
        return 1 + int(np.count_nonzero(cells[1:] != cells[:-1]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def covered_fraction(self) -> float:
        """Fraction of free grid cells covered by at least one disk."""
        if self._free_total == 0:
            return 0.0
        return self._covered_free / self._free_total

    def multiplicity_grid(self) -> np.ndarray:
        """A copy of the per-cell multiplicity grid (``shape == grid.shape``)."""
        return self._multiplicity.reshape(self._grid.shape).copy()
