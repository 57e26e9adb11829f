"""Spatial acceleration subsystem: cell-hash index, neighbor cache, coverage.

The paper's schemes are defined per-period over every sensor's
neighborhood, so the simulator's hot loop is dominated by three queries:
neighbor tables (``Radio.neighbor_table``), base-station adjacency, and
coverage.  The seed implementation recomputed each of them from scratch —
a dense ``O(n^2)`` distance matrix and a full-grid scan per sensing disk —
which caps practical runs at a few hundred sensors.  This package provides
the shared fast paths:

``SpatialIndex`` — a uniform grid hash over a packed ``(n, 2)`` numpy
position store.  The plane is partitioned into square cells of side
``cell_size`` (callers pick the dominant query radius, e.g. the
communication range); each point is bucketed by ``floor(p / cell_size)``
and the buckets are stored as slices of one argsorted index array, so
candidate generation for a radius-``r`` query touches only the
``ceil(r / cell_size)``-ring of cells around the query and is fully
vectorised (no per-point Python loop).  Candidates are then filtered by
*squared* distance — ``sqrt`` is never taken.  Cell membership is an
over-approximation only: the geometric candidate ring is slightly
inflated, and the exact float64 predicate ``d2 <= r*r`` decides
membership, so results are bit-identical to a brute-force squared-distance
scan.

``NeighborCache`` — an epoch-based per-:class:`~repro.sim.world.World`
cache of the neighbor table, base-station adjacency and the base station's
connected component.  The epoch is the tuple of per-sensor
``MotionModel.position_version`` counters, which are bumped on *every*
position assignment; the cache therefore invalidates exactly when a sensor
actually moves and three queries issued in the same period share one
spatial-index build instead of three dense matrix rebuilds.  Cached
structures are returned as copies so callers may mutate them freely, which
preserves the semantics of the pre-cache API.

``IncrementalCoverage`` — maintains the per-cell coverage *multiplicity*
grid (how many sensing disks contain each sample point) plus a running
count of covered free cells.  Each update rasterises the movers' old and
new disks in one batched
:meth:`~repro.geometry.grid.CoverageGrid.rasterize_disks` pass, removes
and adds the hits with ``np.subtract.at``/``np.add.at``, and adjusts the
covered count from the touched cells only (0<->1 transitions), making
``World.coverage()`` cheap enough to trace every period.  Every coverage
path shares that kernel, whose per-cell predicate is the per-disk
scan's float64 ``dx*dx + dy*dy <= r*r`` inside the disk's own
``searchsorted`` bounds; integer updates commute, so the multiplicity
grid and the coverage fraction match the per-disk scan exactly, not
just to within tolerance.

Invalidation contract: the ``NeighborCache`` epoch covers per-sensor
position versions and communication ranges plus the radio's
line-of-sight flag and the configured base-station range, so both
movement and mid-run radio-parameter mutations invalidate; the sensor
*population* is assumed fixed for the lifetime of a ``World``, which
holds for every scheme in this repository.  ``IncrementalCoverage``
diffs the packed position array itself, rebuilds in one batch when the
sensor count changes or at least half the sensors moved, and records the
``Field.version`` whose obstacle mask it rasterised, so ``World``
rebuilds it after an obstacle mutation.  The library keeps one path per
query; the brute-force references (the dense radio scans and the
per-disk coverage scan in ``tests/oracles.py``) are exercised against it
by randomized parity tests under ``tests/spatial/``.
"""

from .index import SpatialIndex, pack_positions
from .cache import NeighborCache
from .coverage import IncrementalCoverage
from .pairstore import PairStore

__all__ = [
    "SpatialIndex",
    "NeighborCache",
    "IncrementalCoverage",
    "PairStore",
    "pack_positions",
]
