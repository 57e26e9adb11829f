"""Epoch-based neighbor cache shared by a World's per-period queries.

One simulation period issues the same neighborhood computation several
times: the scheme asks for the neighbor table, the bootstrap flood asks
for the base station's component, the engine asks whether the network is
connected.  The cache builds one :class:`~repro.spatial.SpatialIndex` per
*epoch* — the tuple of per-sensor ``MotionModel.position_version``
counters — and derives all three answers from it; the epoch changes
exactly when some sensor's position is assigned, so an unchanged layout
never recomputes anything.

Cached structures are handed out as copies: the pre-cache ``World`` API
returned freshly built dicts/lists/sets that callers were free to mutate,
and several schemes do mutate neighbor lists in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .index import SpatialIndex, pack_positions
from .pairstore import PairStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..sim.world import World

__all__ = ["NeighborCache"]

#: Base-station candidate queries inflate the radius before the exact
#: ``link_exists`` re-check so borderline float rounding between the
#: squared and sqrt formulations can never drop a candidate.
_QUERY_SLACK = 1e-9

#: Link tolerance mirrored from :mod:`repro.network.radio` (not imported —
#: radio itself imports this package); the pair queries below must accept
#: exactly the pairs the neighbour table accepts.
_LINK_EPS = 1e-9

#: The incremental pair store is generated at ``limit * (1 + fraction)``:
#: the inflation is the drift slack — sensors may drift up to half of
#: ``fraction * limit`` from their anchored positions before the store
#: needs repairing, so at a 60-80 m range a store survives many periods
#: of ``max_step``-bounded CPVF movement between repairs.
_STORE_SLACK_FRACTION = 0.2

#: When more than ``max(32, n // _STORE_REBUILD_DIVISOR)`` sensors exceed
#: their drift budget at once (mass teleport, scenario reset), a fresh
#: bulk build is cheaper than per-mover probing.
_STORE_REBUILD_DIVISOR = 8

#: Bound on memoised per-``extra_radius`` pair sets per epoch; call sites
#: use a handful of radii, so this only guards against an unbounded
#: sweep of distinct float radii accumulating stale entries.
_PAIRS_MEMO_LIMIT = 8


def pairs_from_table(sensors, table) -> tuple:
    """Pack a neighbour-table dict into ``(rows, cols, d2)`` arrays.

    The conversion for consumers that need the flat pair view when the
    indexed path is unavailable (line-of-sight radio, fewer than two live
    sensors): positional indices in table order, plus the exact squared
    distances.
    """
    pos_of = {s.sensor_id: k for k, s in enumerate(sensors)}
    rows_list: List[int] = []
    cols_list: List[int] = []
    for s in sensors:
        r = pos_of[s.sensor_id]
        for nb in table.get(s.sensor_id, ()):
            rows_list.append(r)
            cols_list.append(pos_of[nb])
    rows = np.asarray(rows_list, dtype=np.intp)
    cols = np.asarray(cols_list, dtype=np.intp)
    xs = np.fromiter((s.position.x for s in sensors), float, len(sensors))
    ys = np.fromiter((s.position.y for s in sensors), float, len(sensors))
    dx = xs[rows] - xs[cols]
    dy = ys[rows] - ys[cols]
    return rows, cols, dx * dx + dy * dy


class NeighborCache:
    """Per-world cache of neighbor structures, invalidated by movement."""

    def __init__(self, world: "World"):
        self._world = world
        self._epoch: Optional[tuple] = None
        # The incremental pair store survives epoch changes (position
        # drift is exactly what it absorbs); only population churn or an
        # explicit invalidate() drops it.
        self._pair_store: Optional[PairStore] = None
        #: Cumulative pair-maintenance events plus the kind of the most
        #: recent ``neighbor_pairs`` answer ("memo" / "derived" /
        #: "serve" / "repair" / "rebuild" / "bypass").
        self.pair_events: Dict[str, object] = {
            "serves": 0,
            "repairs": 0,
            "rebuilds": 0,
            "bypasses": 0,
            "last": None,
        }
        self._reset()

    def _reset(self) -> None:
        self._index: Optional[SpatialIndex] = None
        self._table: Optional[Dict[int, List[int]]] = None
        self._base_neighbors: Optional[List[int]] = None
        self._component: Optional[Set[int]] = None
        self._pairs: Dict[float, tuple] = {}
        self._pair_index: Optional[SpatialIndex] = None
        self._pair_index_radius: Optional[float] = None
        self._alive: Optional[list] = None

    def _alive_sensors(self) -> list:
        """Live sensors for the current epoch (``world.sensors`` itself
        while the population is intact, so static runs are untouched)."""
        if self._alive is None:
            self._alive = self._world.alive_sensors()
        return self._alive

    # ------------------------------------------------------------------
    # Epoch handling
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        world = self._world
        # Position versions carry the per-period invalidation; the radio
        # parameters (per-sensor ranges, line-of-sight flag) are included so
        # a mid-run mutation cannot serve a stale table.
        # population_version covers churn (a failure flips aliveness
        # without touching any position_version; an injection changes the
        # tuple length too, but only the version captures removal).
        epoch = (
            world.radio.line_of_sight,
            world.config.communication_range,
            world.population_version,
            world.field.version,
            tuple(
                (s.motion.position_version, s.communication_range)
                for s in world.sensors
            ),
        )
        if epoch != self._epoch:
            self._epoch = epoch
            self._reset()

    def invalidate(self) -> None:
        """Drop all cached structures (next query recomputes).

        Also drops the incremental pair store: ``invalidate`` is the
        churn path (``World.add_sensor``/``remove_sensor`` call it), and
        a population change invalidates the store's anchors wholesale —
        the next pair request rebuilds from scratch over the survivors.
        """
        self._epoch = None
        self._pair_store = None
        self._reset()

    # ------------------------------------------------------------------
    # Shared index
    # ------------------------------------------------------------------
    def _spatial_index(self) -> Optional[SpatialIndex]:
        """The shared index for the current epoch (``None`` when unusable)."""
        world = self._world
        sensors = self._alive_sensors()
        if len(sensors) < 2:
            return None
        if self._index is None:
            max_range = max(s.communication_range for s in sensors)
            max_range = max(max_range, world.config.communication_range, 1e-9)
            self._index = SpatialIndex(max_range * 1.001).build(
                pack_positions(sensors)
            )
        return self._index

    def _pairs_index(self, radius: float) -> Optional[SpatialIndex]:
        """A dedicated index for whole-population pair queries.

        Pair generation visits every point's neighbourhood, so (unlike
        the point queries the shared index serves) it is worth building a
        second index with half-radius cells: the candidate ring hugs the
        query disk tighter and the distance filter discards far fewer
        pairs.  The packed position store is reused from the shared
        index.  Cell size is a bucketing choice only — the accepted pair
        set is identical whatever the cells.
        """
        shared = self._spatial_index()
        if shared is None:
            return None
        if self._pair_index is None or self._pair_index_radius != radius:
            self._pair_index = SpatialIndex(max(radius, 1e-9) * 1.001 / 2.0).build(
                shared.points
            )
            self._pair_index_radius = radius
        return self._pair_index

    # ------------------------------------------------------------------
    # Cached queries
    # ------------------------------------------------------------------
    def neighbor_table(self) -> Dict[int, List[int]]:
        """Copy of the cached neighbor table (ids -> ids in range)."""
        self._validate()
        table = self._raw_table()
        return {sid: list(neighbors) for sid, neighbors in table.items()}

    def _raw_table(self) -> Dict[int, List[int]]:
        if self._table is None:
            self._table = self._world.radio.neighbor_table(
                self._alive_sensors(), self._spatial_index()
            )
        return self._table

    def neighbor_pairs(
        self, extra_radius: float = 0.0, with_d2: bool = False
    ):
        """Directed neighbour pairs as packed index arrays.

        Returns ``(rows, cols)`` (or ``(rows, cols, d2)`` with
        ``with_d2``): ``cols[k]`` is within communication range — plus
        ``extra_radius`` — of ``rows[k]``; both are *positions* into
        ``world.sensors`` (identical to sensor ids for worlds built by
        :meth:`World.create`), sorted lexicographically by ``(row, col)``.
        With ``extra_radius=0`` the accepted pair set is exactly the one
        :meth:`neighbor_table` lists — same index, radius and tolerance —
        packed flat for array consumers (the batched CPVF kernel) instead
        of materialising per-sensor Python lists.  A positive
        ``extra_radius`` inflates the acceptance per sensor to
        ``rc_i + extra``; the batched repair pass uses it to enumerate
        parent-change candidates that may have drifted into range since
        the period started.  An exact-radius request is served by masking
        an already-cached inflated set (``d2`` is the per-pair squared
        distance, so the subsets nest exactly).
        """
        self._validate()
        cached = self._pairs.get(extra_radius)
        if cached is not None:
            self._record_pair_event("memo")
        else:
            # A smaller-radius request nests exactly inside a cached
            # inflated set (homogeneous-range index path only, where the
            # acceptance limit is one scalar).
            larger = [
                e
                for e, entry in self._pairs.items()
                if e > extra_radius and entry[3] is not None
            ]
            if larger:
                rows, cols, d2, limit = self._pairs[min(larger)]
                new_limit = limit - min(larger) + extra_radius
                keep = d2 <= new_limit * new_limit
                cached = (rows[keep], cols[keep], d2[keep], new_limit)
                self._record_pair_event("derived")
            else:
                cached = self._store_pairs(extra_radius)
                if cached is None:
                    cached = self._build_pairs(extra_radius)
                    self._record_pair_event("bypass")
            self._pairs[extra_radius] = cached
            while len(self._pairs) > _PAIRS_MEMO_LIMIT:
                # FIFO eviction (dicts preserve insertion order); an
                # evicted radius is simply recomputed on its next use.
                self._pairs.pop(next(iter(self._pairs)))
        rows, cols, d2, _ = cached
        if with_d2:
            return rows, cols, d2
        return rows, cols

    def _record_pair_event(self, kind: str) -> None:
        counter = {
            "serve": "serves",
            "repair": "repairs",
            "rebuild": "rebuilds",
            "bypass": "bypasses",
        }.get(kind)
        if counter is not None:
            self.pair_events[counter] += 1
        self.pair_events["last"] = kind

    def _homogeneous_limit(self, extra_radius: float) -> Optional[float]:
        """The scalar acceptance limit, or ``None`` when ineligible.

        The incremental store (like the nesting reuse) only applies when
        acceptance is one scalar radius over the full population: no
        line-of-sight blocking, no dead sensors (positional
        indices must equal sensor ids for the store's anchors to stay
        meaningful across epochs), homogeneous communication ranges.
        """
        world = self._world
        sensors = self._alive_sensors()
        if (
            world.radio.line_of_sight
            or len(sensors) < 2
            or len(sensors) != len(world.sensors)
        ):
            return None
        rc_list = [s.communication_range for s in sensors]
        if min(rc_list) != max(rc_list):
            return None
        return max(rc_list) + _LINK_EPS + extra_radius

    @staticmethod
    def _mover_cap(n: int) -> int:
        return max(32, n // _STORE_REBUILD_DIVISOR)

    def _store_pairs(self, extra_radius: float) -> Optional[tuple]:
        """Serve a pair request from the incremental store.

        Returns the usual ``(rows, cols, d2, limit)`` memo entry, or
        ``None`` when the request is ineligible (the caller falls back
        to :meth:`_build_pairs`).  Maintains the store: builds it on
        first use or after churn, repairs it when a few sensors have
        out-drifted their slack budget, rebuilds it on mass movement.
        The answer is exact either way — bit-identical to a fresh
        ``neighbor_pairs_directed`` build (pinned by
        ``tests/spatial/test_pair_store.py``).
        """
        limit = self._homogeneous_limit(extra_radius)
        if limit is None:
            return None
        index = self._spatial_index()
        x, y = index.xs, index.ys
        store = self._pair_store
        movers = None if store is None else store.movers(x, y, limit)
        if movers is None or len(movers) > self._mover_cap(len(x)):
            store = PairStore.build(
                x, y, limit * (1.0 + _STORE_SLACK_FRACTION)
            )
            self._pair_store = store
            self._record_pair_event("rebuild")
        elif len(movers):
            store.repair(x, y, movers)
            self._record_pair_event("repair")
        else:
            self._record_pair_event("serve")
        rows, cols, d2 = store.serve(x, y, limit)
        return rows, cols, d2, limit

    def pairs_maintenance_hint(self, extra_radius: float = 0.0) -> str:
        """Predict how the next ``neighbor_pairs`` call will be served.

        ``"incremental"`` when the answer will come from cached state
        (memo hit, nesting derivation, store serve or store repair);
        ``"rebuild"`` when a from-scratch pair generation is coming
        (no store yet, churn, mass movement, or an ineligible world).
        Side-effect free — the kernel calls it to pick the telemetry
        span name before issuing the real request.
        """
        self._validate()
        if extra_radius in self._pairs:
            return "incremental"
        if any(
            e > extra_radius and entry[3] is not None
            for e, entry in self._pairs.items()
        ):
            return "incremental"
        limit = self._homogeneous_limit(extra_radius)
        if limit is None or self._pair_store is None:
            return "rebuild"
        index = self._spatial_index()
        movers = self._pair_store.movers(index.xs, index.ys, limit)
        if movers is None or len(movers) > self._mover_cap(index.size):
            return "rebuild"
        return "incremental"

    def _build_pairs(self, extra_radius: float) -> tuple:
        """Generate one pair set at ``rc + extra_radius`` acceptance."""
        world = self._world
        sensors = self._alive_sensors()
        index = self._spatial_index()
        if index is not None and not world.radio.line_of_sight:
            rc_list = [s.communication_range for s in sensors]
            max_range = max(rc_list) + _LINK_EPS + extra_radius
            pair_index = self._pairs_index(max_range)
            rows, cols, d2 = pair_index.neighbor_pairs_directed(max_range)
            if rc_list and min(rc_list) != max(rc_list):
                rcs = (
                    np.fromiter(rc_list, dtype=float, count=len(rc_list))
                    + _LINK_EPS
                    + extra_radius
                )
                keep = d2 <= rcs[rows] * rcs[rows]
                rows, cols, d2 = rows[keep], cols[keep], d2[keep]
                # Heterogeneous acceptance: subsets do not nest through
                # one scalar limit.
                return (*self._remap_pairs(sensors, rows, cols), d2, None)
            rows, cols = self._remap_pairs(sensors, rows, cols)
            return rows, cols, d2, max_range
        # Line-of-sight (or < 2 sensors): derive the pairs from the
        # authoritative table so blocking semantics carry over.  The
        # inflation is ignored here — candidates beyond the table's reach
        # are a perf superset, never a correctness requirement.
        rows, cols, d2 = pairs_from_table(sensors, self._raw_table())
        rows, cols = self._remap_pairs(sensors, rows, cols)
        return rows, cols, d2, None

    def _remap_pairs(self, sensors, rows, cols) -> tuple:
        """Map alive-subset positions back to full-list indices (= ids).

        Identity while the population is intact — ``sensors`` is then the
        whole list, so positional indices already equal sensor ids.
        """
        if len(sensors) == len(self._world.sensors):
            return rows, cols
        ids = np.fromiter(
            (s.sensor_id for s in sensors), dtype=np.intp, count=len(sensors)
        )
        return ids[rows], ids[cols]

    def neighbor_rows(
        self, sensor_ids: Sequence[int]
    ) -> Dict[int, List[int]]:
        """Neighbour lists for a subset of sensors only.

        Produces, for each requested id, the same list
        :meth:`neighbor_table` would contain for it, but touching only the
        requested rows — the batched CPVF path uses it to serve its few
        still-disconnected walkers without materialising the full table.
        """
        self._validate()
        if self._table is not None:
            return {sid: list(self._table.get(sid, ())) for sid in sensor_ids}
        world = self._world
        index = self._spatial_index()
        if index is None or world.radio.line_of_sight:
            table = self._raw_table()
            return {sid: list(table.get(sid, ())) for sid in sensor_ids}
        # The shared index is built over the *alive* subset; candidate
        # indices are positions into that subset, not sensor ids.
        alive = self._alive_sensors()
        out: Dict[int, List[int]] = {}
        for sid in sensor_ids:
            sensor = world.sensors[sid]
            if not sensor.is_alive():
                out[sid] = []
                continue
            rc = sensor.communication_range
            pos = sensor.position
            candidates = index.query_radius(
                pos, rc + _LINK_EPS + _QUERY_SLACK
            )
            # Accept by *squared* distance, exactly like the indexed
            # table build — the sqrt-based link predicate can disagree
            # by one ulp at the range boundary.
            limit_sq = (rc + _LINK_EPS) ** 2
            row: List[int] = []
            for i in candidates.tolist():
                other = alive[i]
                if other.sensor_id == sid:
                    continue
                dx = pos.x - other.position.x
                dy = pos.y - other.position.y
                if dx * dx + dy * dy <= limit_sq:
                    row.append(other.sensor_id)
            out[sid] = row
        return out

    def base_station_neighbors(self) -> List[int]:
        """Copy of the cached one-hop neighborhood of the base station."""
        self._validate()
        return list(self._raw_base_neighbors())

    def _raw_base_neighbors(self) -> List[int]:
        if self._base_neighbors is None:
            world = self._world
            base = world.base_station
            rc = world.config.communication_range
            sensors = self._alive_sensors()
            index = self._spatial_index()
            if index is None:
                self._base_neighbors = world.radio.neighbors_of_point(
                    base, sensors, rc
                )
            else:
                candidates = index.query_radius(base, rc + 2.0 * _QUERY_SLACK)
                self._base_neighbors = [
                    sensors[i].sensor_id
                    for i in candidates.tolist()
                    if world.radio.link_exists(base, sensors[i].position, rc)
                ]
        return self._base_neighbors

    def connected_component(self) -> Set[int]:
        """Copy of the cached set of ids reachable from the base station."""
        self._validate()
        if self._component is None:
            world = self._world
            self._component = world.radio.connected_component_of(
                self._alive_sensors(),
                world.base_station,
                world.config.communication_range,
                table=self._raw_table(),
                base_neighbors=self._raw_base_neighbors(),
            )
        return set(self._component)
