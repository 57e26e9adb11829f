"""The FLOOR deployment scheme (Section 5).

FLOOR divides the field into floors of height ``2 * rs`` and grows coverage
like a vine over a framework of floor lines and field/obstacle boundaries.
The scheme runs in three phases:

1. **Achieving connectivity** (Section 5.2, Algorithm 1) — every
   disconnected sensor walks, via BUG2 with the right-hand rule and the
   lazy-movement strategy, through two intermediate destinations (the
   projection onto its nearest floor line, then the projection onto the
   y axis) toward the base station, stopping as soon as it comes within
   ``min(rc, 2*rs)`` of a connected node, which becomes its tree parent.
2. **Identifying movable sensors** (Section 5.3) — serialised over the
   tree, each sensor checks whether its children could be re-parented
   without creating loops and whether the area it covers exclusively is
   below a threshold; if both hold it is *movable*, otherwise *fixed*.
3. **Expanding coverage** (Section 5.5) — fixed sensors discover expansion
   points (FLG / BLG / IFLG), advertise them with TTL-bounded random-walk
   invitations, and movable sensors relocate to accepted expansion points
   (BUG2 with the left-hand rule), becoming fixed on arrival and searching
   for further expansion opportunities themselves.

Reproduction note: when an invitation is accepted the inviter installs a
*virtual fixed node* at the expansion point (as in Algorithm 2).  In this
implementation the virtual node also participates in expansion-point
discovery while the invited sensor is still in transit; without this, the
coverage frontier could only advance at the pace of one sensor-relocation
per hop, which does not fit the paper's 750-second horizon.  Coverage is
always measured from *physical* sensor positions, so the shortcut only
affects how early invitations for the next hop can be issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from ..field import Field
from ..geometry import Vec2
from ..mobility import Bug2Path, Bug2Planner, Handedness
from ..network import BASE_STATION_ID, MessageType
from ..sensors import Sensor, SensorState
from ..sim import DeploymentScheme, World
from .expansion import ExpansionKind, ExpansionPlanner, ExpansionPoint
from .floors import FloorGeometry
from .headers import FloorRegistry
from .invitations import InvitationProtocol
from .lazy import LazyMovementController

__all__ = ["FloorScheme"]

#: Number of sample points used to estimate a sensor's exclusive coverage.
_EXCLUSIVE_COVERAGE_SAMPLES = 24

#: Virtual-node ids are offset so they never collide with sensor ids.
_VIRTUAL_ID_OFFSET = 1_000_000


class FloorScheme(DeploymentScheme):
    """Floor-based deployment."""

    name = "FLOOR"

    def __init__(
        self,
        invitation_ttl: Optional[int] = None,
        movable_exclusive_threshold: float = 0.4,
        phase2_deadline_fraction: float = 0.25,
        virtual_nodes_search: bool = True,
    ):
        """Create the scheme.

        Parameters
        ----------
        invitation_ttl:
            TTL of the invitation random walk; defaults to the simulation
            configuration's value (``0.2 * N`` unless overridden).
        movable_exclusive_threshold:
            A connected sensor is declared movable only when the fraction of
            its sensing disk it covers exclusively is below this threshold.
        phase2_deadline_fraction:
            Phase 2 starts when all sensors are connected or after this
            fraction of the simulation horizon, whichever comes first (the
            paper's "maximum arrival time" estimate).
        virtual_nodes_search:
            Whether virtual place-holding nodes participate in expansion-
            point discovery while the invited sensor is in transit (see the
            module docstring).
        """
        self._ttl_override = invitation_ttl
        self._movable_threshold = movable_exclusive_threshold
        self._phase2_deadline_fraction = phase2_deadline_fraction
        self._virtual_nodes_search = virtual_nodes_search

        self._floors: Optional[FloorGeometry] = None
        self._registry: Optional[FloorRegistry] = None
        self._planner_connect: Optional[Bug2Planner] = None
        self._planner_disperse: Optional[Bug2Planner] = None
        self._lazy: Optional[LazyMovementController] = None
        self._invitations: Optional[InvitationProtocol] = None
        self._expansion: Optional[ExpansionPlanner] = None

        self._phase: int = 1
        #: Fixed / virtual node ids still scanning for expansion points.
        self._active_searchers: Set[int] = set()
        #: Positions of virtual searcher nodes keyed by their registry id.
        self._virtual_positions: Dict[int, Vec2] = {}
        #: Relocating sensors: sensor id -> (target EP, inviter id).
        self._relocations: Dict[int, ExpansionPoint] = {}
        self._virtual_counter: int = 0
        #: Relocations granted but not yet started under network latency:
        #: ``(due_period, movable_id, ep)`` entries drained each period.
        self._deferred_starts: List[tuple] = []
        #: Movable sensors with a deferred start in flight (excluded from
        #: new invitation rounds until the start fires or is cancelled).
        self._pending_movables: Set[int] = set()

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def initialize(self, world: World) -> None:
        config = world.config
        self._floors = FloorGeometry.for_field(world.field, config.sensing_range)
        self._registry = FloorRegistry(self._floors)
        self._planner_connect = Bug2Planner(world.field, Handedness.RIGHT)
        self._planner_disperse = Bug2Planner(world.field, Handedness.LEFT)
        self._lazy = LazyMovementController(world.routing)
        ttl = (
            self._ttl_override
            if self._ttl_override is not None
            else config.effective_invitation_ttl()
        )
        self._invitations = InvitationProtocol(
            routing=world.routing, ttl=max(1, int(ttl)), rng=world.rng
        )
        self._expansion = ExpansionPlanner(
            field=world.field,
            floors=self._floors,
            registry=self._registry,
            sensing_range=config.sensing_range,
            expansion_radius=min(
                config.communication_range, config.sensing_range
            ),
        )
        self._phase = 1
        self._active_searchers.clear()
        self._virtual_positions.clear()
        self._relocations.clear()
        self._deferred_starts.clear()
        self._pending_movables.clear()

        self._bootstrap_connectivity(world)
        for sensor in world.sensors:
            if sensor.state is SensorState.DISCONNECTED:
                sensor.state = SensorState.MOVING_TO_CONNECT
                sensor.motion.follow(self._plan_connect_trajectory(world, sensor))

    def _bootstrap_connectivity(self, world: World) -> None:
        """Initial flood: the base station's connected component joins the tree."""
        # Served from the world's neighbor cache: the component, the table
        # and the base adjacency below share one spatial-index build.
        component = world.connected_component_of()
        table = world.neighbor_table()
        near_base = set(world.sensors_near_base_station())
        frontier: List[int] = []
        for sid in sorted(near_base):
            world.attach_to_tree(sid, BASE_STATION_ID)
            frontier.append(sid)
        attached = set(near_base)
        net = world.network
        retransmissions = 0
        while frontier:
            current = frontier.pop(0)
            for nb in table.get(current, []):
                if nb in attached or nb not in component:
                    continue
                if net.lossy:
                    # Flood edges retransmit with backoff up to the budget;
                    # nodes the flood misses re-join through phase 1.
                    delivered, attempts = net.exchange(
                        world, ("flood", current, nb), 1
                    )
                    retransmissions += attempts - 1
                    if not delivered:
                        continue
                world.attach_to_tree(nb, current)
                attached.add(nb)
                frontier.append(nb)
        world.routing.record_flood(len(attached) + retransmissions)

    def _plan_connect_trajectory(self, world: World, sensor: Sensor) -> Bug2Path:
        """Algorithm 1: the three-leg BUG2 trajectory toward the base station."""
        assert self._planner_connect is not None and self._floors is not None
        start = sensor.position
        floor_y = self._floors.nearest_floor_line(start.y)
        leg_targets = [
            Vec2(start.x, floor_y),
            Vec2(0.0, floor_y),
            world.base_station,
        ]
        waypoints: List[Vec2] = [start]
        reached = True
        current = start
        encounters = 0
        for target in leg_targets:
            leg = self._planner_connect.plan(current, target)
            encounters += leg.encounters
            # Skip the duplicated starting waypoint of each leg.
            waypoints.extend(leg.waypoints[1:])
            current = leg.waypoints[-1]
            reached = leg.reached_target
        return Bug2Path(waypoints, reached, encounters)

    # ------------------------------------------------------------------
    # Per-period execution
    # ------------------------------------------------------------------
    def step(self, world: World) -> None:
        assert self._lazy is not None
        # Protocol decisions read the table through the network model
        # (live pass-through by default, aged under staleness); coverage
        # and connectivity metrics stay on live state.
        table = world.protocol_neighbor_table()
        self._connect_reachable_sensors(world, table)
        self._advance_disconnected_sensors(world, table)

        if self._phase == 1 and self._phase2_should_start(world):
            self._identify_movable_sensors(world, table)
            self._phase = 3

        if self._phase == 3:
            # Sensors that only managed to connect after phase 2 ran are
            # classified on arrival: they volunteer as movable sensors.
            for sensor in world.sensors:
                if sensor.state is SensorState.CONNECTED:
                    sensor.state = SensorState.MOVABLE
            tel = world.telemetry
            self._start_due_relocations(world)
            with tel.span("floor.relocations"):
                self._advance_relocations(world)
            with tel.span("floor.expansion_round"):
                self._run_expansion_round(world)
            if tel.enabled:
                tel.gauge(
                    "floor.relocations_in_flight", len(self._relocations)
                )

    # -- Phase 1: achieving connectivity --------------------------------
    def _attach_distance(self, world: World) -> float:
        """Distance at which a connecting sensor stops next to its parent."""
        config = world.config
        return min(config.communication_range, 2.0 * config.sensing_range)

    def _connect_reachable_sensors(
        self, world: World, table: Dict[int, List[int]]
    ) -> None:
        attach_distance = self._attach_distance(world)
        newly_connected = True
        while newly_connected:
            newly_connected = False
            for sensor in world.sensors:
                if sensor.is_connected() or not sensor.is_alive():
                    continue
                parent_id = self._closest_connected_node(
                    world, sensor, table, attach_distance
                )
                if parent_id is None:
                    continue
                sensor.motion.stop()
                assert self._lazy is not None
                self._lazy.stop_waiting(sensor)
                world.attach_to_tree(sensor.sensor_id, parent_id)
                sensor.state = SensorState.CONNECTED
                # Arrival report up the tree and the ancestor-list response
                # back down (Section 5.3).
                world.routing.record_to_base_station(
                    world.tree, sensor.sensor_id, MessageType.ARRIVAL_REPORT
                )
                world.routing.record_from_base_station(
                    world.tree, sensor.sensor_id, MessageType.ANCESTOR_RESPONSE
                )
                newly_connected = True

    def _closest_connected_node(
        self,
        world: World,
        sensor: Sensor,
        table: Dict[int, List[int]],
        attach_distance: float,
    ) -> Optional[int]:
        best: Optional[int] = None
        best_dist = float("inf")
        base_dist = sensor.position.distance_to(world.base_station)
        if base_dist <= attach_distance:
            best, best_dist = BASE_STATION_ID, base_dist
        for nb_id in table.get(sensor.sensor_id, []):
            nb = world.sensor(nb_id)
            # Relocating sensors have (temporarily) left the tree and cannot
            # serve as attachment points.
            if not nb.is_connected() or nb_id not in world.tree:
                continue
            dist = sensor.position.distance_to(nb.position)
            if dist <= attach_distance and dist < best_dist:
                best, best_dist = nb_id, dist
        return best

    def _advance_disconnected_sensors(
        self, world: World, table: Dict[int, List[int]]
    ) -> None:
        assert self._lazy is not None
        for sensor in world.sensors:
            if sensor.is_connected() or not sensor.is_alive():
                continue
            neighbors = [
                world.sensor(n)
                for n in table.get(sensor.sensor_id, [])
                if not world.sensor(n).is_connected()
            ]
            self._lazy.advance_toward_connection(
                sensor,
                world.base_station,
                neighbors,
                lambda s=sensor: self._plan_connect_trajectory(world, s),
            )
            self._exit_obstacle(world, sensor)

    @staticmethod
    def _exit_obstacle(world: World, sensor: Sensor) -> None:
        """Obstacle-exit correction after one transit step.

        A BUG2 polyline keeps only ~0.5 m of clearance when rounding
        obstacle corners, so the arc-length interpolation between two
        pushed-out waypoints can dip into an obstacle's interior.  A sensor
        must never be observed (or end a run) inside an obstacle, so every
        transit step — connection walks and relocations alike — exits back
        into free space.
        """
        if not world.field.is_free(sensor.position):
            sensor.position = world.field.nearest_free(sensor.position)

    # -- Phase 2: identifying movable sensors ---------------------------
    def _phase2_should_start(self, world: World) -> bool:
        all_connected = all(
            s.is_connected() for s in world.sensors if s.is_alive()
        )
        deadline = int(
            self._phase2_deadline_fraction * world.config.max_periods
        )
        return all_connected or world.period_index >= deadline

    def _identify_movable_sensors(
        self, world: World, table: Dict[int, List[int]]
    ) -> None:
        """Classify every connected sensor as fixed or movable (Section 5.3)."""
        assert self._registry is not None
        # Serialise in breadth-first tree order, as the depth-first
        # coordination message of the paper would.
        order: List[int] = []
        frontier = sorted(world.tree.children_of(BASE_STATION_ID))
        seen = set(frontier)
        while frontier:
            current = frontier.pop(0)
            order.append(current)
            for child in sorted(world.tree.children_of(current)):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)

        for sid in order:
            sensor = world.sensor(sid)
            if not sensor.is_connected():
                continue
            movable = self._children_can_be_rehomed(
                world, sensor, table
            ) and self._exclusive_coverage_is_low(world, sensor, table)
            if movable:
                sensor.state = SensorState.MOVABLE
            else:
                sensor.state = SensorState.FIXED
                self._registry.register(sid, sensor.position)
                self._active_searchers.add(sid)

        # Sensors that never connected stay out of phase 3 until they do;
        # when they connect later they are treated as movable volunteers.
        for sensor in world.sensors:
            if sensor.state is SensorState.CONNECTED:
                sensor.state = SensorState.MOVABLE

        # Expansion needs at least one anchored sensor to search for
        # expansion points.  In a dense clustered start it can happen that
        # every sensor's exclusive coverage is tiny and everyone volunteers
        # as movable; in that case the sensor closest to the base station
        # (the tree root's first hop) is kept fixed as the seed.
        if not self._active_searchers:
            candidates = [s for s in world.sensors if s.is_connected()]
            if candidates:
                seed = min(
                    candidates,
                    key=lambda s: s.position.distance_to(world.base_station),
                )
                seed.state = SensorState.FIXED
                self._registry.register(seed.sensor_id, seed.position)
                self._active_searchers.add(seed.sensor_id)

    def _children_can_be_rehomed(
        self, world: World, sensor: Sensor, table: Dict[int, List[int]]
    ) -> bool:
        """Whether every child could attach to another connected neighbour."""
        children = world.tree.children_of(sensor.sensor_id)
        if not children:
            return True
        for child in children:
            child_sensor = world.sensor(child)
            subtree = world.tree.subtree_of(child)
            found = False
            base_dist = child_sensor.position.distance_to(world.base_station)
            if base_dist <= world.config.communication_range:
                found = True
            if not found:
                for candidate in table.get(child, []):
                    if candidate == sensor.sensor_id or candidate in subtree:
                        continue
                    if world.sensor(candidate).is_connected():
                        found = True
                        break
            if not found:
                return False
        return True

    def _exclusive_coverage_is_low(
        self, world: World, sensor: Sensor, table: Dict[int, List[int]]
    ) -> bool:
        """Estimate the exclusively covered fraction of the sensing disk."""
        neighbors = [
            world.sensor(nid)
            for nid in table.get(sensor.sensor_id, [])
            if world.sensor(nid).is_connected()
        ]
        rs = sensor.sensing_range
        exclusive = 0
        samples = 0
        for k in range(_EXCLUSIVE_COVERAGE_SAMPLES):
            # Deterministic low-discrepancy samples: spiral inside the disk.
            fraction = (k + 0.5) / _EXCLUSIVE_COVERAGE_SAMPLES
            radius = rs * math.sqrt(fraction)
            angle = 2.0 * math.pi * (k * 0.61803398875 % 1.0)
            point = sensor.position + Vec2.from_polar(radius, angle)
            if not world.field.is_free(point):
                continue
            samples += 1
            if not any(nb.covers(point) for nb in neighbors):
                exclusive += 1
        if samples == 0:
            return True
        return (exclusive / samples) < self._movable_threshold

    # -- Phase 3: expanding coverage ------------------------------------
    def _start_due_relocations(self, world: World) -> None:
        """Fire deferred relocation starts whose latency has elapsed.

        Under network latency an acknowledged invitation does not reach
        the movable sensor instantly; the start is parked and fires here
        once its due period arrives.  A sensor that lost its movable
        status in the meantime (failed, re-dispatched by churn) simply
        drops the grant.
        """
        if not self._deferred_starts:
            return
        period = world.period_index
        due = [entry for entry in self._deferred_starts if entry[0] <= period]
        if not due:
            return
        self._deferred_starts = [
            entry for entry in self._deferred_starts if entry[0] > period
        ]
        for _, movable_id, ep in due:
            self._pending_movables.discard(movable_id)
            sensor = world.sensor(movable_id)
            if (
                sensor.is_alive()
                and sensor.state is SensorState.MOVABLE
                and movable_id not in self._relocations
            ):
                self._start_relocation(world, movable_id, ep)

    def _advance_relocations(self, world: World) -> None:
        assert self._registry is not None
        arrived: List[int] = []
        for sensor_id, ep in self._relocations.items():
            sensor = world.sensor(sensor_id)
            sensor.motion.advance_along_path()
            self._exit_obstacle(world, sensor)
            if not sensor.motion.has_path or sensor.position.distance_to(
                ep.position
            ) <= 1e-6:
                arrived.append(sensor_id)
        for sensor_id in arrived:
            ep = self._relocations.pop(sensor_id)
            sensor = world.sensor(sensor_id)
            # Obstacle-exit correction on arrival: the expansion point was
            # checked to be free when discovered, but nearest_free guards
            # against a stale EP (e.g. clamped onto an obstacle boundary).
            sensor.position = world.field.nearest_free(ep.position)
            sensor.state = SensorState.FIXED
            self._registry.promote_virtual(sensor_id, sensor.position)
            # Re-attach to the tree under the inviter (or the base station
            # when the inviter was a virtual node that has no tree presence).
            parent = ep.owner_id if ep.owner_id in world.tree else BASE_STATION_ID
            if parent != BASE_STATION_ID and parent >= _VIRTUAL_ID_OFFSET:
                parent = BASE_STATION_ID
            world.attach_to_tree(sensor_id, parent)
            self._active_searchers.add(sensor_id)
            # Remove the corresponding virtual searcher, if any.
            self._remove_virtual_for(ep)

    def _remove_virtual_for(self, ep: ExpansionPoint) -> None:
        """Drop the virtual searcher standing in for an arrived sensor."""
        to_remove = [
            vid
            for vid, pos in self._virtual_positions.items()
            if pos.distance_to(ep.position) <= 1e-6
        ]
        for vid in to_remove:
            self._virtual_positions.pop(vid, None)
            self._active_searchers.discard(vid)
            assert self._registry is not None
            self._registry.unregister(vid)

    def _searcher_position(self, world: World, searcher_id: int) -> Optional[Vec2]:
        if searcher_id >= _VIRTUAL_ID_OFFSET:
            return self._virtual_positions.get(searcher_id)
        sensor = world.sensor(searcher_id)
        if sensor.state is not SensorState.FIXED:
            return None
        return sensor.position

    def _run_expansion_round(self, world: World) -> None:
        assert self._expansion is not None and self._invitations is not None
        tel = world.telemetry

        # 1. Fixed (and virtual) searchers look for expansion points.
        with tel.span("floor.expansion.candidates"):
            searchers: List[Tuple[int, Vec2]] = []
            exhausted: List[int] = []
            for searcher_id in sorted(self._active_searchers):
                position = self._searcher_position(world, searcher_id)
                if position is None:
                    exhausted.append(searcher_id)
                else:
                    searchers.append((searcher_id, position))
        found = self._expansion.round_points(searchers, tel)
        with tel.span("floor.expansion.candidates"):
            expansion_points: List[ExpansionPoint] = []
            for (searcher_id, _), points in zip(searchers, found):
                if not points:
                    # "If a sensor finds no expansion points on its expansion
                    # circle, then it stops the checking process."
                    exhausted.append(searcher_id)
                    continue
                # Coverage-status queries to the relevant floor headers: one
                # query and one response per floor asked, routed over the tree.
                floors_asked = self._floors.floors_possibly_covering(
                    points[0].position, world.config.sensing_range
                ) if self._floors is not None else []
                if floors_asked:
                    world.routing.record_one_hop(
                        MessageType.COVERAGE_QUERY, len(floors_asked)
                    )
                    world.routing.record_one_hop(
                        MessageType.COVERAGE_RESPONSE, len(floors_asked)
                    )
                expansion_points.extend(points)
            for searcher_id in exhausted:
                self._active_searchers.discard(searcher_id)

            # Expansion priorities (Section 5.5.1): FLG gives the largest
            # coverage gain per relocation, BLG comes second (it is what
            # introduces sensors to new floors along boundaries) and IFLG
            # infill comes last.  Advertising only the highest-priority kind
            # available in a round keeps movable sensors from being spent on
            # boundary or infill points while floor-line frontiers are still
            # open.
            for kind in (
                ExpansionKind.FLG, ExpansionKind.BLG, ExpansionKind.IFLG
            ):
                of_kind = [ep for ep in expansion_points if ep.kind is kind]
                if of_kind:
                    expansion_points = of_kind
                    break
        if not expansion_points:
            return

        with tel.span("floor.invitations"):
            # 2. One invitation round matches EPs with movable sensors.
            movable = [
                s
                for s in world.sensors
                if s.state is SensorState.MOVABLE
                and s.sensor_id not in self._relocations
                and s.sensor_id not in self._pending_movables
            ]
            connected_count = len(world.connected_sensor_ids())
            if tel.enabled:
                # One invitation walk starts per advertised expansion point.
                tel.count("floor.invitations_issued", len(expansion_points))
            assignments = self._invitations.run_round(
                expansion_points, movable, connected_count, world.tree,
                world=world,
            )
            tel.count("floor.relocations_started", len(assignments))

            # 3. Accepted movable sensors start relocating — immediately on
            #    the perfect network, after ``latency`` periods otherwise.
            net = world.network
            for assignment in assignments:
                if net.latency > 0:
                    world.stats.record_net("delayed", net.latency)
                    self._deferred_starts.append((
                        world.period_index + net.latency,
                        assignment.movable_id,
                        assignment.expansion_point,
                    ))
                    self._pending_movables.add(assignment.movable_id)
                else:
                    self._start_relocation(
                        world, assignment.movable_id, assignment.expansion_point
                    )

    def _start_relocation(
        self, world: World, movable_id: int, ep: ExpansionPoint
    ) -> None:
        assert self._planner_disperse is not None and self._registry is not None
        sensor = world.sensor(movable_id)
        if not self._rehome_children(world, sensor):
            return
        # Leave the tree while in transit; the subtree has been re-homed.
        parent = world.tree.parent_of(movable_id)
        if parent is not None and parent != BASE_STATION_ID:
            world.sensor(parent).children.discard(movable_id)
        world.tree.detach(movable_id, keep_subtree=True)
        sensor.state = SensorState.RELOCATING
        path = self._planner_disperse.plan(sensor.position, ep.position)
        sensor.motion.follow(path)
        self._relocations[movable_id] = ep

        # Install the virtual place-holding fixed node at the EP.
        self._virtual_counter += 1
        virtual_id = _VIRTUAL_ID_OFFSET + self._virtual_counter
        self._registry.register(virtual_id, ep.position, virtual=True)
        if self._virtual_nodes_search:
            self._virtual_positions[virtual_id] = ep.position
            self._active_searchers.add(virtual_id)

    def _rehome_children(self, world: World, sensor: Sensor) -> bool:
        """Give every child of a departing movable sensor a new parent."""
        children = list(world.tree.children_of(sensor.sensor_id))
        if not children:
            return True
        table = world.protocol_neighbor_table()
        for child in children:
            child_sensor = world.sensor(child)
            subtree = world.tree.subtree_of(child)
            rc_limit = child_sensor.communication_range + 1e-9
            candidates: List[int] = []
            if (
                child_sensor.position.distance_to(world.base_station)
                <= world.config.communication_range
            ):
                candidates.append(BASE_STATION_ID)
            for candidate in table.get(child, []):
                if candidate == sensor.sensor_id or candidate in subtree:
                    continue
                candidate_sensor = world.sensor(candidate)
                if not candidate_sensor.is_connected() or candidate not in world.tree:
                    continue
                # Live-range revalidation: a stale table entry may have
                # drifted out of range; adopting it would put a broken
                # link into the tree (no-op when the table is live).
                if (
                    child_sensor.position.distance_to(candidate_sensor.position)
                    > rc_limit
                ):
                    continue
                candidates.append(candidate)
            reparented = False
            for candidate in candidates:
                if world.reparent_in_tree(child, candidate):
                    reparented = True
                    break
            if not reparented:
                return False
        return True

    # ------------------------------------------------------------------
    # Lifecycle churn
    # ------------------------------------------------------------------
    def on_world_changed(self, world: World, change) -> None:
        """React to fault-injection events between periods.

        A dead sensor is evicted everywhere it is remembered: its floor-
        registry record (so expansion-point discovery stops treating its
        disk as covered), its searcher slot, any in-flight relocation (plus
        the virtual place-holder standing at the target EP) and any lazy
        path-parent state.  Sensors the tree repair dropped — and freshly
        injected ones — restart phase 1 as connection walkers.  Obstacle
        changes re-plan in-flight relocations against the new field right
        away, because ``_advance_relocations`` reads an empty path as
        "arrived at the expansion point".
        """
        if self._registry is None or self._lazy is None:
            return
        for sid in change.failed_ids:
            sensor = world.sensor(sid)
            self._lazy.stop_waiting(sensor)
            self._registry.unregister(sid)
            self._active_searchers.discard(sid)
            self._drop_deferred_start(sid)
            ep = self._relocations.pop(sid, None)
            if ep is not None:
                self._remove_virtual_for(ep)
        for sid in chain(change.disconnected_ids, change.added_ids):
            sensor = world.sensor(sid)
            if not sensor.is_alive() or sensor.is_connected():
                continue
            self._registry.unregister(sid)
            self._active_searchers.discard(sid)
            self._drop_deferred_start(sid)
            ep = self._relocations.pop(sid, None)
            if ep is not None:
                self._remove_virtual_for(ep)
            sensor.state = SensorState.MOVING_TO_CONNECT
            self._lazy.stop_waiting(sensor)
            sensor.motion.stop()
        if change.obstacles_changed:
            assert self._planner_disperse is not None
            for sensor in world.sensors:
                if not sensor.is_alive():
                    continue
                ep = self._relocations.get(sensor.sensor_id)
                if ep is not None:
                    sensor.motion.follow(
                        self._planner_disperse.plan(sensor.position, ep.position)
                    )
                elif sensor.motion.has_path:
                    # Connection walks re-plan lazily on the next period.
                    sensor.motion.stop()

    def _drop_deferred_start(self, sensor_id: int) -> None:
        """Cancel any latency-deferred relocation start for a sensor."""
        if sensor_id in self._pending_movables:
            self._pending_movables.discard(sensor_id)
            self._deferred_starts = [
                entry for entry in self._deferred_starts
                if entry[1] != sensor_id
            ]

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def has_converged(self, world: World) -> bool:
        """FLOOR converges once nothing is moving and nothing is searching."""
        if self._phase != 3:
            return False
        if self._relocations or self._deferred_starts:
            return False
        if any(
            not s.is_connected() for s in world.sensors if s.is_alive()
        ):
            return False
        return not self._active_searchers
