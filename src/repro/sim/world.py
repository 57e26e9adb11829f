"""The simulation world: field, sensors, radio, tree and statistics.

The world is the shared state a deployment scheme manipulates.  It owns the
sensor population, the connectivity tree rooted at the base station, the
message-accounting sinks and convenience queries (neighbour tables, network
connectivity, coverage) that the schemes and the metrics layer both use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..field import (
    Field,
    clustered_initial_positions,
    uniform_initial_positions,
)
from ..geometry import Vec2
from ..mobility import MotionModel
from ..network import (
    BASE_STATION_ID,
    ConnectivityTree,
    MessageStats,
    MessageType,
    NetworkModel,
    PERFECT_NETWORK,
    Radio,
    RoutingCostModel,
)
from ..obs import NULL_TELEMETRY, Telemetry
from ..sensors import Sensor, SensorState
from ..spatial import IncrementalCoverage, NeighborCache
from .config import SimulationConfig

__all__ = ["World"]


@dataclass
class World:
    """Mutable simulation state shared by the engine and the scheme."""

    config: SimulationConfig
    field: Field
    sensors: List[Sensor]
    radio: Radio
    tree: ConnectivityTree
    stats: MessageStats
    routing: RoutingCostModel
    rng: random.Random
    time: float = 0.0
    period_index: int = 0
    #: Bumped whenever the *set* of live sensors changes (failure or mid-run
    #: injection).  Cache epochs include it, so population churn invalidates
    #: derived structures even when no surviving sensor moved.
    population_version: int = 0
    #: Telemetry distribution point: the engine installs its collector
    #: here, so schemes / tree repair / fault injection reach it through
    #: the world they already hold.  The shared null instance makes the
    #: default a no-op.
    telemetry: Telemetry = field(
        default=NULL_TELEMETRY, repr=False, compare=False
    )
    #: Delivery-condition model consulted at protocol decision points.
    #: The shared perfect instance is a pass-through, so the default is
    #: byte-identical to the pre-conditions behaviour; the run layer
    #: installs an ``UnreliableNetwork`` when the spec asks for one.
    network: NetworkModel = field(
        default=PERFECT_NETWORK, repr=False, compare=False
    )
    _neighbor_cache: Optional[NeighborCache] = field(
        default=None, init=False, repr=False, compare=False
    )
    _coverage_trackers: Dict[Tuple[float, float], IncrementalCoverage] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        config: SimulationConfig,
        field: Field,
        initial_positions: Optional[Sequence[Vec2]] = None,
        placement: Optional[Callable[..., Sequence[Vec2]]] = None,
    ) -> "World":
        """Build a world with sensors placed at their initial positions.

        The placement is drawn exactly once, from the world's own RNG
        stream.  ``placement`` is a strategy callable
        ``(config, field, rng) -> positions`` (the scenario layer passes
        registered strategies here); when omitted, the positions are drawn
        according to ``config.clustered_start`` (clustered lower-left
        quadrant, the paper's main setting, or uniform over the field).
        Explicit ``initial_positions`` bypass the draw entirely.
        """
        rng = random.Random(config.seed)
        if initial_positions is None:
            if placement is not None:
                initial_positions = list(placement(config, field, rng))
            elif config.clustered_start:
                # The paper clusters the initial distribution in the lower-left
                # quadrant (500 x 500 m of a 1000 x 1000 m field); scale the
                # cluster with the field so reduced-scale runs keep the shape.
                initial_positions = clustered_initial_positions(
                    config.sensor_count,
                    rng,
                    cluster_size=field.width / 2.0,
                    field=field,
                )
            else:
                initial_positions = uniform_initial_positions(
                    config.sensor_count, rng, field
                )
        if len(initial_positions) != config.sensor_count:
            raise ValueError(
                "number of initial positions does not match sensor_count"
            )
        sensors = [
            Sensor(
                sensor_id=i,
                motion=MotionModel(
                    position=pos,
                    max_speed=config.max_speed,
                    period=config.period,
                ),
                communication_range=config.communication_range,
                sensing_range=config.sensing_range,
            )
            for i, pos in enumerate(initial_positions)
        ]
        stats = MessageStats()
        return cls(
            config=config,
            field=field,
            sensors=sensors,
            radio=Radio(field),
            tree=ConnectivityTree(),
            stats=stats,
            routing=RoutingCostModel(stats),
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def sensor(self, sensor_id: int) -> Sensor:
        """The sensor with the given id."""
        return self.sensors[sensor_id]

    @property
    def base_station(self) -> Vec2:
        """Position of the base station / reference point."""
        return self.config.base_station

    def positions(self) -> List[Vec2]:
        """Current positions of all sensors, in id order."""
        return [s.position for s in self.sensors]

    def alive_sensors(self) -> List[Sensor]:
        """The operational (non-FAILED) sensors, in id order.

        Returns the ``sensors`` list itself while no sensor has failed, so
        static runs take exactly the pre-lifecycle code paths.
        """
        sensors = self.sensors
        alive = [s for s in sensors if s.state is not SensorState.FAILED]
        return sensors if len(alive) == len(sensors) else alive

    def alive_count(self) -> int:
        """Number of operational sensors."""
        return sum(1 for s in self.sensors if s.state is not SensorState.FAILED)

    def _cache(self) -> NeighborCache:
        if self._neighbor_cache is None:
            self._neighbor_cache = NeighborCache(self)
        return self._neighbor_cache

    def neighbor_table(self) -> Dict[int, List[int]]:
        """Current neighbour lists (ids within communication range)."""
        return self._cache().neighbor_table()

    def neighbor_pairs(self, extra_radius: float = 0.0, with_d2: bool = False):
        """Directed neighbour pairs ``(rows, cols[, d2])`` as index arrays.

        The flat-array view of :meth:`neighbor_table` (same accepted pairs,
        same ordering; ``extra_radius`` inflates the acceptance) used by
        the batched CPVF kernel; see
        :meth:`repro.spatial.NeighborCache.neighbor_pairs`.
        """
        return self._cache().neighbor_pairs(extra_radius, with_d2)

    def pairs_maintenance_hint(self, extra_radius: float = 0.0) -> str:
        """``"incremental"`` or ``"rebuild"`` — how the next
        :meth:`neighbor_pairs` call at this radius will be served (see
        :meth:`repro.spatial.NeighborCache.pairs_maintenance_hint`)."""
        return self._cache().pairs_maintenance_hint(extra_radius)

    def pairs_maintenance_last(self) -> Optional[str]:
        """Kind of the most recent pair answer ("memo"/"derived"/
        "serve"/"repair"/"rebuild"/"bypass"), ``None`` before the first
        request."""
        if self._neighbor_cache is None:
            return None
        return self._neighbor_cache.pair_events["last"]

    def neighbor_rows(self, sensor_ids: Sequence[int]) -> Dict[int, List[int]]:
        """Neighbour lists for a subset of sensors (see the cache method)."""
        return self._cache().neighbor_rows(sensor_ids)

    def protocol_neighbor_table(self) -> Dict[int, List[int]]:
        """Neighbour table as the *protocol* layer sees it.

        Routed through the network model: live under the perfect network,
        possibly aged under :class:`~repro.network.conditions
        .UnreliableNetwork` staleness.  Physics queries (coverage,
        connectivity, movement validation) must keep using
        :meth:`neighbor_table`.
        """
        return self.network.neighbor_table(self)

    def protocol_neighbor_rows(
        self, sensor_ids: Sequence[int]
    ) -> Dict[int, List[int]]:
        """Per-sensor neighbour rows as the protocol layer sees them."""
        return self.network.neighbor_rows(self, sensor_ids)

    def sensors_near_base_station(self) -> List[int]:
        """Sensors within one hop of the base station."""
        return self._cache().base_station_neighbors()

    def connected_component_of(self) -> Set[int]:
        """Ids of sensors reachable from the base station via multi-hop links."""
        return self._cache().connected_component()

    def connected_sensor_ids(self) -> List[int]:
        """Sensors currently marked as connected (any connected state)."""
        return [s.sensor_id for s in self.sensors if s.is_connected()]

    # ------------------------------------------------------------------
    # Global metrics
    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of non-obstacle field area covered by sensing disks.

        The incremental tracker re-rasterises only the disks of sensors
        that moved since the previous call; the result is identical to
        rasterising every disk from scratch.  A tracker built before the
        field's last obstacle mutation is rebuilt.  With telemetry on,
        counts ``coverage.updates`` and ``coverage.disks`` (disks
        rasterised, removals included).
        """
        alive = self.alive_sensors()
        key = (self.config.sensing_range, self.config.coverage_resolution)
        tracker = self._coverage_trackers.get(key)
        if tracker is None or tracker.field_version != self.field.version:
            tracker = IncrementalCoverage(self.field, key[0], key[1])
            self._coverage_trackers[key] = tracker
        disks = tracker.update([(s.position.x, s.position.y) for s in alive])
        if self.telemetry.enabled:
            self.telemetry.count("coverage.updates", 1)
            self.telemetry.count("coverage.disks", disks)
        return tracker.covered_fraction()

    def network_is_connected(self) -> bool:
        """Whether every live sensor has a multi-hop route to the base station."""
        return len(self.connected_component_of()) == self.alive_count()

    def total_moving_distance(self) -> float:
        """Sum of all sensors' odometers."""
        return sum(s.moving_distance for s in self.sensors)

    def average_moving_distance(self) -> float:
        """Average odometer reading per sensor."""
        if not self.sensors:
            return 0.0
        return self.total_moving_distance() / len(self.sensors)

    # ------------------------------------------------------------------
    # Position commits
    # ------------------------------------------------------------------
    def commit_moves(
        self, moves: Sequence[Tuple[Sensor, float, float, float]]
    ) -> None:
        """Apply a batch of validated ``(sensor, x, y, distance)`` moves.

        The single commit point of the batched CPVF path: one color class
        commits here in one pass, and each sensor's position is assigned
        exactly once (a single ``position_version`` bump per sensor per
        class), so the neighbour cache's epoch advances once per moved
        sensor rather than once per intermediate assignment.  The
        odometer distances arrive precomputed from the class's batch
        arrays.
        """
        for sensor, x, y, dist in moves:
            sensor.motion.commit_move(x, y, dist)

    # ------------------------------------------------------------------
    # Tree maintenance helpers
    # ------------------------------------------------------------------
    def attach_to_tree(self, sensor_id: int, parent_id: int) -> None:
        """Attach a sensor to the connectivity tree and update its record."""
        self.tree.attach(sensor_id, parent_id)
        sensor = self.sensor(sensor_id)
        sensor.set_parent(parent_id, self.tree.ancestors_of(sensor_id))
        if not sensor.state.is_connected():
            sensor.state = SensorState.CONNECTED
        if parent_id != BASE_STATION_ID:
            self.sensor(parent_id).children.add(sensor_id)

    def reparent_in_tree(self, sensor_id: int, new_parent_id: int) -> bool:
        """Re-parent a sensor; keeps sensor-side records in sync."""
        old_parent = self.tree.parent_of(sensor_id)
        if not self.tree.reparent(sensor_id, new_parent_id):
            return False
        sensor = self.sensor(sensor_id)
        sensor.set_parent(new_parent_id, self.tree.ancestors_of(sensor_id))
        if old_parent is not None and old_parent != BASE_STATION_ID:
            self.sensor(old_parent).children.discard(sensor_id)
        if new_parent_id != BASE_STATION_ID:
            self.sensor(new_parent_id).children.add(sensor_id)
        return True

    # ------------------------------------------------------------------
    # Population churn (fault injection)
    # ------------------------------------------------------------------
    def add_sensor(self, position: Vec2) -> Sensor:
        """Inject a new (disconnected) sensor at ``position``.

        The sensor is appended so its id equals its list index, preserving
        the id-as-index invariant every fast path relies on.  The position
        is clamped to the field and pushed out of obstacles.
        """
        pos = self.field.nearest_free(self.field.clamp(position))
        sensor = Sensor(
            sensor_id=len(self.sensors),
            motion=MotionModel(
                position=pos,
                max_speed=self.config.max_speed,
                period=self.config.period,
            ),
            communication_range=self.config.communication_range,
            sensing_range=self.config.sensing_range,
        )
        self.sensors.append(sensor)
        self.population_version += 1
        if self._neighbor_cache is not None:
            self._neighbor_cache.invalidate()
        return sensor

    def remove_sensor(self, sensor_id: int) -> List[int]:
        """Mark a sensor FAILED and repair the connectivity tree around it.

        The dead sensor keeps its slot in ``sensors`` (ids stay equal to
        indices) but leaves the tree; each orphaned subtree is re-rooted at
        a member with a live link back to the remaining tree (or to the
        base station) and re-attached there.  Subtrees with no such link
        fall out of the tree entirely — their members revert to
        DISCONNECTED and are returned so the scheme can send them walking
        again.
        """
        sensor = self.sensor(sensor_id)
        if sensor.state is SensorState.FAILED:
            return []
        sensor.motion.stop()
        sensor.state = SensorState.FAILED
        sensor.path_parent_id = None
        sensor.idle_periods = 0
        self.population_version += 1
        if self._neighbor_cache is not None:
            self._neighbor_cache.invalidate()
        with self.telemetry.span("tree.repair"):
            disconnected = self._repair_tree_after_failure(sensor_id)
        if self.telemetry.enabled:
            self.telemetry.count("tree.repairs", 1)
            self.telemetry.count("tree.repair_dropped", len(disconnected))
        sensor.parent_id = None
        sensor.children = set()
        sensor.ancestors = []
        return disconnected

    def _repair_tree_after_failure(self, sensor_id: int) -> List[int]:
        """Re-attach (or drop) the subtrees orphaned by a node death."""
        tree = self.tree
        if sensor_id not in tree.parent:
            return []
        parent_id = tree.parent_of(sensor_id)
        orphan_roots = tree.remove_node(sensor_id)
        if parent_id is not None and parent_id != BASE_STATION_ID:
            self.sensor(parent_id).children.discard(sensor_id)
        if not orphan_roots:
            return []
        anchored = tree.subtree_of(BASE_STATION_ID)
        dropped: List[int] = []
        pending = list(orphan_roots)
        progress = True
        # An orphan subtree may only reach the main tree through another
        # orphan that re-attaches first, so iterate to a fixpoint.
        while pending and progress:
            progress = False
            remaining: List[int] = []
            for root in pending:
                if self._reattach_orphan_subtree(root, anchored):
                    progress = True
                else:
                    remaining.append(root)
            pending = remaining
        for root in pending:
            members = tree.discard_floating(root)
            for member_id in members:
                member = self.sensor(member_id)
                member.state = SensorState.DISCONNECTED
                member.parent_id = None
                member.children = set()
                member.ancestors = []
            dropped.extend(members)
        return sorted(dropped)

    def _reattach_orphan_subtree(self, root: int, anchored: Set[int]) -> bool:
        """Try to re-attach one floating subtree to the anchored tree.

        Every subtree member probes its neighbourhood (one TREE_REPAIR
        transmission each); the member with the shortest live link to an
        anchored node becomes the subtree's new root and attaches there.
        On success ``anchored`` is extended with the subtree's members.

        Under a lossy network the two-message attach handshake (new-root
        announcement + attach request) retransmits with exponential
        backoff up to the delivery budget; if it still fails the subtree
        is treated as unreachable this round — the caller's fixpoint may
        retry it via another orphan, else it is discarded and its members
        revert to DISCONNECTED (the existing safe state).
        """
        tree = self.tree
        members = sorted(tree.subtree_of(root))
        member_set = set(members)
        rows = self.neighbor_rows(members)
        self.stats.record_transmissions(MessageType.TREE_REPAIR, len(members))
        best: Optional[Tuple[float, int, int]] = None
        rc = self.config.communication_range
        for member_id in members:
            pos = self.sensor(member_id).position
            base_distance = pos.distance_to(self.base_station)
            if self.radio.link_exists(pos, self.base_station, rc):
                candidate = (base_distance, member_id, BASE_STATION_ID)
                if best is None or candidate < best:
                    best = candidate
            for neighbor_id in rows.get(member_id, ()):
                if neighbor_id in member_set or neighbor_id not in anchored:
                    continue
                distance = pos.distance_to(self.sensor(neighbor_id).position)
                candidate = (distance, member_id, neighbor_id)
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            return False
        _, new_root, anchor_id = best
        delivered, attempts = self.network.exchange(
            self, ("tree.repair", root, new_root, anchor_id), 2
        )
        # New root announcement + attach request (per delivery attempt).
        self.stats.record_transmissions(MessageType.TREE_REPAIR, 2 * attempts)
        if not delivered:
            return False
        tree.reroot_floating(root, new_root)
        tree.attach(new_root, anchor_id)
        for member_id in members:
            member = self.sensor(member_id)
            member.set_parent(tree.parent_of(member_id), tree.ancestors_of(member_id))
            member.children = tree.children_of(member_id)
        if anchor_id != BASE_STATION_ID:
            self.sensor(anchor_id).children.add(new_root)
        anchored.update(member_set)
        self.telemetry.count("tree.repair_reattached", len(members))
        return True
