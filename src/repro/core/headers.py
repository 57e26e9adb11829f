"""Floor-header registry and coverage-status queries (Section 5.4).

Each floor has a *header node* — the fixed node with the smallest
x coordinate on that floor — which records the locations of the fixed nodes
on its floor in a compact run-length form.  When a sensor needs to know
whether a point beyond its own sensing range is already covered, it first
asks its direct neighbours and otherwise sends a query to the header nodes
of the floors that could contain a covering sensor.

The registry below is the centralised bookkeeping equivalent: it stores the
fixed (and virtual, i.e. place-holding) node positions per floor, answers
point-coverage queries, and reports which floor a node belongs to so the
scheme can account the query / response message costs on the tree.

The coverage and same-floor-neighbour queries are the hot loop of FLOOR's
phase-3 expansion search, so they are served from a
:class:`~repro.spatial.index.SpatialIndex` rebuilt lazily whenever the
records change.  The records stay frozen while a round collects expansion
points, so the round asks :meth:`FloorRegistry.covered_points` once per
stage for every candidate point of every searcher (one vectorised
multi-point radius query); :meth:`FloorRegistry.is_point_covered` is the
same query for a batch of one.  Randomized parity tests pin the indexed
queries against an exhaustive per-floor scan kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Vec2
from ..spatial import SpatialIndex
from .floors import FloorGeometry

__all__ = ["FloorRegistry", "FloorRecord"]


@dataclass(frozen=True)
class FloorRecord:
    """One fixed (or virtual place-holding) node registered on a floor."""

    node_id: int
    position: Vec2
    virtual: bool = False


@dataclass
class FloorRegistry:
    """Per-floor record of fixed and virtual fixed nodes."""

    floors: FloorGeometry
    _records: Dict[int, Dict[int, FloorRecord]] = field(default_factory=dict)
    _index: Optional[SpatialIndex] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(floor_index, record)`` in index order, parallel to the index store.
    _index_records: List[Tuple[int, FloorRecord]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Node id and floor-line y of each indexed record, in index order.
    _index_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64),
        init=False, repr=False, compare=False,
    )
    _index_line_y: np.ndarray = field(
        default_factory=lambda: np.empty(0), init=False, repr=False, compare=False
    )
    _index_dirty: bool = field(default=True, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: int, position: Vec2, virtual: bool = False) -> int:
        """Register a fixed node (or a virtual place-holder) at ``position``.

        Returns the floor index the node was filed under.  Re-registering an
        id overwrites its previous record (e.g. a virtual place-holder being
        replaced by the real sensor on arrival), even when the new position
        lies on a different floor.
        """
        self.unregister(node_id)
        floor_index = self.floors.floor_index(position.y)
        self._records.setdefault(floor_index, {})[node_id] = FloorRecord(
            node_id=node_id, position=position, virtual=virtual
        )
        self._index_dirty = True
        return floor_index

    def unregister(self, node_id: int) -> None:
        """Remove a node from whatever floor it was registered on."""
        for floor_records in self._records.values():
            if floor_records.pop(node_id, None) is not None:
                self._index_dirty = True

    def promote_virtual(self, node_id: int, position: Vec2) -> None:
        """Replace a virtual place-holder by the real arrived sensor."""
        self.unregister(node_id)
        self.register(node_id, position, virtual=False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records_on_floor(self, floor_index: int) -> List[FloorRecord]:
        """All records registered on a floor."""
        return list(self._records.get(floor_index, {}).values())

    def all_records(self) -> List[FloorRecord]:
        """All records across all floors."""
        result: List[FloorRecord] = []
        for floor_records in self._records.values():
            result.extend(floor_records.values())
        return result

    def floor_of(self, node_id: int) -> Optional[int]:
        """Floor index a node is registered on (``None`` when absent)."""
        for floor_index, floor_records in self._records.items():
            if node_id in floor_records:
                return floor_index
        return None

    def header_of_floor(self, floor_index: int) -> Optional[FloorRecord]:
        """The floor header: the registered node with the smallest x.

        Ties are broken by node id, as in the paper.
        """
        records = self.records_on_floor(floor_index)
        if not records:
            return None
        return min(records, key=lambda r: (r.position.x, r.node_id))

    def _ensure_index(self) -> SpatialIndex:
        """The spatial index over all records, rebuilt when records changed.

        The store is laid out floor by floor in registration order, so
        ascending index order restricted to one floor equals that floor's
        dict iteration order — the indexed queries therefore return records
        in exactly the order the exhaustive scan visits them.
        """
        if self._index is not None and not self._index_dirty:
            return self._index
        self._index_records = [
            (floor_index, record)
            for floor_index, floor_records in self._records.items()
            for record in floor_records.values()
        ]
        self._index_ids = np.array(
            [r.node_id for _, r in self._index_records], dtype=np.int64
        )
        self._index_line_y = np.array(
            [self.floors.floor_line_y(f) for f, _ in self._index_records],
            dtype=float,
        )
        index = SpatialIndex(cell_size=max(self.floors.floor_height, 1e-9))
        index.build([(r.position.x, r.position.y) for _, r in self._index_records])
        self._index = index
        self._index_dirty = False
        return index

    def covered_points(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        sensing_range: float,
        excludes: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """Coverage of a batch of points by registered nodes.

        Point ``k`` is covered when some record within
        ``sensing_range + 1e-9`` of it lies on a floor the point could ask
        (:meth:`FloorGeometry.floors_possibly_covering`) and is not one of
        the ids in ``excludes[k]``.  All points are answered by one
        multi-point radius query over the registry's spatial index.
        """
        px = np.asarray(xs, dtype=float)
        py = np.asarray(ys, dtype=float)
        covered = np.zeros(px.shape, dtype=bool)
        index = self._ensure_index()
        reach = sensing_range + 1e-9
        queries, hits = index.query_radius_many(px, py, reach)
        if queries.size == 0:
            return covered
        ids = self._index_ids[hits]
        keep = np.abs(self._index_line_y[hits] - py[queries]) <= reach
        width = max((len(ex) for ex in excludes), default=0)
        if width:
            # Pad every exclusion list to one width with an id no record has.
            pad = int(self._index_ids.min()) - 1
            table = np.full((len(excludes), width), pad, dtype=np.int64)
            for k, ex in enumerate(excludes):
                table[k, : len(ex)] = ex
            keep &= ~(table[queries] == ids[:, None]).any(axis=1)
        covered[queries[keep]] = True
        return covered

    def is_point_covered(
        self,
        point: Vec2,
        sensing_range: float,
        exclude: Sequence[int] = (),
    ) -> Tuple[bool, List[int]]:
        """Whether ``point`` is covered by any registered node.

        Returns ``(covered, floors_queried)`` where ``floors_queried`` lists
        the floor indices a distributed implementation would have had to ask
        (used by the scheme to account query/response messages).  Nodes in
        ``exclude`` (typically the asking sensor itself) are ignored.  A
        batch of one through :meth:`covered_points`.
        """
        covered = self.covered_points(
            [point.x], [point.y], sensing_range, [tuple(exclude)]
        )
        return (
            bool(covered[0]),
            self.floors.floors_possibly_covering(point, sensing_range),
        )

    def neighbors_on_floor(
        self, node_id: int, radius: float
    ) -> List[FloorRecord]:
        """Registered nodes on the same floor within ``radius`` of a node."""
        floor_index = self.floor_of(node_id)
        if floor_index is None:
            return []
        records = self._records.get(floor_index, {})
        me = records.get(node_id)
        if me is None:
            return []
        index = self._ensure_index()
        result: List[FloorRecord] = []
        for i in index.query_radius(me.position, radius + 1e-9):
            hit_floor, record = self._index_records[i]
            if hit_floor == floor_index and record.node_id != node_id:
                result.append(record)
        return result

    def count(self, include_virtual: bool = True) -> int:
        """Number of registered nodes."""
        return sum(
            1
            for r in self.all_records()
            if include_virtual or not r.virtual
        )

    def compact_summary(self, floor_index: int) -> List[Tuple[float, float]]:
        """Run-length summary of x-intervals occupied on a floor.

        Mirrors the paper's observation that a floor header only needs to
        record the first and last x coordinates of each contiguous run of
        regularly spaced nodes.  Two consecutive nodes belong to the same
        run when their spacing does not exceed twice the sensing range.
        """
        records = sorted(
            self.records_on_floor(floor_index), key=lambda r: r.position.x
        )
        if not records:
            return []
        max_gap = 2.0 * self.floors.sensing_range
        runs: List[Tuple[float, float]] = []
        run_start = records[0].position.x
        previous = records[0].position.x
        for record in records[1:]:
            x = record.position.x
            if x - previous > max_gap:
                runs.append((run_start, previous))
                run_start = x
            previous = x
        runs.append((run_start, previous))
        return runs
