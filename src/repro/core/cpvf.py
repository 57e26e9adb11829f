"""The Connectivity-Preserved Virtual Force (CPVF) scheme (Section 4).

CPVF proceeds in two stages that in practice overlap in time:

1. **Achieving connectivity** — sensors in the immediate vicinity of the
   base station learn they are connected via a network flood; every other
   sensor walks toward the base station with BUG2 (right-hand rule) under
   the lazy-movement strategy, stopping as soon as it enters the
   communication range of a connected sensor, which becomes its tree parent.
2. **Maximising coverage** — connected sensors move under virtual forces.
   The force only chooses the *direction*; the step size is the largest
   candidate satisfying the connectivity-preserving conditions with respect
   to the sensor's tree parent and children.  A sensor that cannot move at
   all under its current parent may attempt to change parent, which requires
   locking its subtree (LockTree / UnLockTree) to avoid creating loops.

Optionally, the one-step or two-step oscillation-avoidance rule of
Section 6.3 suppresses unproductive movement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional

import numpy as np

from ..field import Field
from ..geometry import EPS
from ..geometry import Segment, Vec2
from ..mobility import Bug2Planner, Handedness
from ..network import BASE_STATION_ID, MessageType
from ..sensors import Sensor, SensorState
from ..sim import DeploymentScheme, World
from .batch_ladder import TreeSchedule, batched_ladder_steps
from .connectivity import (  # noqa: F401 (max_valid_step_points)
    STEP_FRACTIONS,
    NeighborMotion,
    max_valid_step,
    # Not called here, but kept bound: deploybench/trace.py times the
    # ladders by patching this module's attributes.
    max_valid_step_points,
)
from .lazy import LazyMovementController
from .oscillation import OscillationAvoidance, OscillationMode
from .virtual_force import VirtualForceModel

__all__ = ["CPVFScheme", "CPVF_MODES"]

#: The two execution strategies of the coverage stage (see ``mode``).
CPVF_MODES = ("sequential", "batched")


class CPVFScheme(DeploymentScheme):
    """Connectivity-Preserved Virtual Force deployment."""

    name = "CPVF"

    def __init__(
        self,
        allow_parent_change: bool = True,
        oscillation_delta: Optional[float] = None,
        oscillation_mode: str = "one-step",
        repulsion_distance: Optional[float] = None,
        mode: str = "batched",
    ):
        """Create the scheme.

        Parameters
        ----------
        allow_parent_change:
            Whether a sensor blocked by its current parent may re-parent
            (the paper found this gives sensors more freedom to explore).
        oscillation_delta / oscillation_mode:
            Oscillation-avoidance factor and rule (Section 6.3); ``None``
            disables avoidance, which is the paper's default CPVF.
        repulsion_distance:
            Pairwise repulsion threshold for the virtual forces; defaults to
            ``2 * rs`` of the simulated sensors.
        mode:
            Execution strategy of the coverage stage
            (see ``docs/performance.md``):

            ``"batched"`` (default)
                The paper's simultaneous-decision semantics: every
                connected sensor's force comes from start-of-period
                positions in one numpy pass; tree levels are colored by
                BFS-depth parity, and each color class evaluates ladder,
                obstacle clipping and oscillation test as arrays against
                frozen link positions, committing in one pass.  Same
                per-period message accounting as ``"sequential"``;
                trajectories are equivalent in distribution rather than
                numerically identical.  Blocked and stray sensors are
                repaired in conflict-free groups (see
                :meth:`_repair_grouped`).
            ``"sequential"``
                The seed dynamics, kept as the exact reference: sensors
                decide and move one after the other within a period,
                each seeing earlier movers' new positions.
        """
        if mode not in CPVF_MODES:
            raise ValueError(
                f"unknown CPVF mode {mode!r}; choose from {list(CPVF_MODES)}"
            )
        self._allow_parent_change = allow_parent_change
        self._oscillation_delta = oscillation_delta
        self._oscillation_mode = OscillationMode.from_string(oscillation_mode)
        self._repulsion_distance = repulsion_distance
        self._mode = mode
        self._planner: Optional[Bug2Planner] = None
        self._forces: Optional[VirtualForceModel] = None
        self._lazy: Optional[LazyMovementController] = None
        self._avoidance: Optional[OscillationAvoidance] = None
        #: Link-id structures derived from the connectivity tree, rebuilt
        #: only when ``tree.version`` changes.
        self._link_ids_version: Optional[int] = None
        self._link_ids: Dict[int, tuple] = {}
        self._schedule: Optional[TreeSchedule] = None
        #: Lock requests in flight under network latency: sensor id ->
        #: period at which the (delayed) lock grant arrives.
        self._pending_locks: Dict[int, int] = {}

    @property
    def mode(self) -> str:
        """The configured execution mode of the coverage stage."""
        return self._mode

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def initialize(self, world: World) -> None:
        config = world.config
        self._planner = Bug2Planner(world.field, Handedness.RIGHT)
        repulsion = (
            self._repulsion_distance
            if self._repulsion_distance is not None
            else 2.0 * config.sensing_range
        )
        self._forces = VirtualForceModel(
            repulsion_distance=repulsion,
            obstacle_distance=config.sensing_range,
        )
        self._lazy = LazyMovementController(world.routing)
        self._avoidance = OscillationAvoidance(
            max_step=config.max_step,
            delta=self._oscillation_delta,
            mode=self._oscillation_mode,
        )
        # Drop tree-derived caches from any previous world: a fresh tree
        # restarts its version counter, so stale entries could otherwise
        # collide with the new world's version values.
        self._link_ids = {}
        self._link_ids_version = None
        self._schedule = None
        self._pending_locks = {}
        self._bootstrap_connectivity(world)
        for sensor in world.sensors:
            if sensor.state is SensorState.DISCONNECTED:
                sensor.state = SensorState.MOVING_TO_CONNECT
                path = self._planner.plan(sensor.position, world.base_station)
                sensor.motion.follow(path)

    def _bootstrap_connectivity(self, world: World) -> None:
        """Initial flood: the connected component of the base station joins
        the tree; everyone else learns it is disconnected."""
        # The component, table and base adjacency all come from the world's
        # neighbor cache, so the three queries share one spatial-index build.
        component = world.connected_component_of()
        # Build the tree breadth-first from the base station so that parents
        # are always closer (in hops) to the root.
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
                    # Each flood edge retransmits with backoff up to the
                    # delivery budget; a node the flood never reaches stays
                    # disconnected and re-joins through the per-period
                    # connectivity stage instead.
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

    # ------------------------------------------------------------------
    # Per-period execution
    # ------------------------------------------------------------------
    def step(self, world: World) -> None:
        assert self._planner is not None and self._forces is not None
        assert self._lazy is not None and self._avoidance is not None
        if self._mode == "batched":
            # The connectivity stage only needs neighbour rows for sensors
            # that are still walking toward the tree; the coverage stage
            # works on packed pair arrays.  Skipping the full per-sensor
            # table dict is a large part of the batched mode's win.
            with world.telemetry.span("cpvf.connect"):
                disconnected = [
                    s.sensor_id
                    for s in world.sensors
                    if s.is_alive() and not s.is_connected()
                ]
                if disconnected:
                    table = world.protocol_neighbor_rows(disconnected)
                    self._connect_reachable_sensors(world, table)
                    self._advance_disconnected_sensors(world, table)
            self._apply_virtual_forces_batched(world)
            return
        # Protocol decisions read the table through the network model (a
        # live pass-through by default, aged under staleness); physics —
        # the batched pair arrays, coverage, connectivity — stays live.
        table = world.protocol_neighbor_table()
        self._connect_reachable_sensors(world, table)
        self._advance_disconnected_sensors(world, table)
        self._apply_virtual_forces(world, table)

    # -- Stage 1: establishing connectivity ----------------------------
    def _connect_reachable_sensors(
        self, world: World, table: Dict[int, List[int]]
    ) -> None:
        """Disconnected sensors adjacent to the tree join it and stop."""
        newly_connected = True
        while newly_connected:
            newly_connected = False
            for sensor in world.sensors:
                if sensor.is_connected() or not sensor.is_alive():
                    continue
                parent_id = self._closest_connected_neighbor(world, sensor, table)
                if parent_id is None:
                    continue
                sensor.motion.stop()
                assert self._lazy is not None
                self._lazy.stop_waiting(sensor)
                world.attach_to_tree(sensor.sensor_id, parent_id)
                sensor.state = SensorState.CONNECTED
                newly_connected = True

    def _closest_connected_neighbor(
        self, world: World, sensor: Sensor, table: Dict[int, List[int]]
    ) -> Optional[int]:
        """The nearest connected node (sensor or base station) in range."""
        best: Optional[int] = None
        best_dist = float("inf")
        base_dist = sensor.position.distance_to(world.base_station)
        if base_dist <= world.config.communication_range:
            best, best_dist = BASE_STATION_ID, base_dist
        rc_limit = sensor.communication_range + 1e-9
        for nb_id in table.get(sensor.sensor_id, []):
            nb = world.sensor(nb_id)
            if not nb.is_connected():
                continue
            dist = sensor.position.distance_to(nb.position)
            # Live-range revalidation: a stale table entry may have moved
            # out of range since the last refresh (no-op when the table is
            # live — its entries are in range by construction).
            if dist > rc_limit:
                continue
            if dist < best_dist:
                best, best_dist = nb_id, dist
        return best

    def _advance_disconnected_sensors(
        self, world: World, table: Dict[int, List[int]]
    ) -> None:
        """Disconnected sensors walk toward the base station (lazily)."""
        assert self._lazy is not None and self._planner is not None
        for sensor in world.sensors:
            if sensor.is_connected() or not sensor.is_alive():
                continue
            neighbors = [
                world.sensor(n)
                for n in table.get(sensor.sensor_id, [])
                if not world.sensor(n).is_connected()
            ]
            planner = self._planner
            self._lazy.advance_toward_connection(
                sensor,
                world.base_station,
                neighbors,
                lambda s=sensor: planner.plan(s.position, world.base_station),
            )

    # -- Stage 2: virtual-force coverage maximisation -------------------
    def _apply_virtual_forces(
        self, world: World, table: Dict[int, List[int]]
    ) -> None:
        """The sequential coverage stage: one sensor after the other."""
        assert self._forces is not None and self._avoidance is not None
        config = world.config
        for sensor in [s for s in world.sensors if s.is_connected()]:
            neighbor_positions = [
                world.sensor(n).position
                for n in table.get(sensor.sensor_id, [])
            ]
            direction = self._forces.direction(
                sensor.position, neighbor_positions, world.field
            )
            if direction.x == 0.0 and direction.y == 0.0:
                sensor.previous_position = sensor.position
                continue

            required = self._required_neighbors(world, sensor)
            # Each required link costs one state-exchange message before
            # the step-size decision (Section 4.2).
            if required:
                world.routing.record_one_hop(
                    MessageType.NEIGHBOR_STATE, len(required)
                )
            step = max_valid_step(
                sensor.position,
                direction,
                config.max_step,
                required,
                config.communication_range,
            )

            if step <= 0.0 and self._allow_parent_change:
                step = self._try_parent_change(world, sensor, direction, table)

            if step <= 0.0:
                sensor.previous_position = sensor.position
                continue

            self._finish_move(world, sensor, direction, step)

    # -- Stage 2, batched: conflict-free color-class execution ----------
    def _get_schedule(self, world: World) -> TreeSchedule:
        """The coloring/link schedule for the current tree snapshot."""
        tree = world.tree
        n = len(world.sensors)
        schedule = self._schedule
        if (
            schedule is None
            or schedule.version != tree.version
            or len(schedule.colors) != n
        ):
            schedule = TreeSchedule.build(tree, n)
            self._schedule = schedule
        return schedule

    def _force_direction_arrays(
        self, world: World, xs, ys, connected, rows, cols, in_range,
        symmetric: bool,
    ):
        """Unit force directions for all sensors as arrays.

        The pairwise term comes from the packed neighbour pairs (already
        generated for the period; ``in_range`` masks the pairs within the
        exact communication range).  With a common communication range
        (``symmetric``) the pair relation is symmetric, so each unique
        pair is evaluated once and scattered to both endpoints;
        heterogeneous ranges keep the directed evaluation — a sensor only
        feels neighbours *it* can see.  The wall terms use the array form
        of ``boundary_force_xy``; only sensors inside an obstacle's
        perception box pay the scalar per-obstacle loop.  Returns
        ``(ux, uy, moving)`` where ``moving`` marks connected sensors
        with a non-zero resultant.
        """
        assert self._forces is not None
        if symmetric:
            if rows.size:
                keep = in_range & (rows < cols)
                rows, cols = rows[keep], cols[keep]
            fx, fy = self._forces.sensor_force_sums_symmetric(
                xs, ys, rows, cols
            )
        else:
            if rows.size:
                keep = in_range & connected[rows]
                rows, cols = rows[keep], cols[keep]
            fx, fy = self._forces.sensor_force_sums(xs, ys, rows, cols)
        field = world.field
        bx, by = self._forces.boundary_force_arrays(
            xs, ys, field.width, field.height
        )
        fx += bx
        fy += by
        if field.obstacles:
            d = self._forces.obstacle_distance
            near = np.zeros(len(xs), dtype=bool)
            for ob in field.obstacles:
                xmin, ymin, xmax, ymax = ob.bounding_box()
                near |= (
                    (xs >= xmin - d)
                    & (xs <= xmax + d)
                    & (ys >= ymin - d)
                    & (ys <= ymax + d)
                )
            for i in np.flatnonzero(near & connected):
                extra = self._forces.obstacle_only_force(
                    world.sensors[i].position, field
                )
                fx[i] += extra.x
                fy[i] += extra.y
        norm = np.hypot(fx, fy)
        moving = connected & (norm > EPS)
        safe = np.where(moving, norm, 1.0)
        ux = np.where(moving, fx / safe, 0.0)
        uy = np.where(moving, fy / safe, 0.0)
        return ux, uy, moving

    def _apply_virtual_forces_batched(self, world: World) -> None:
        """One coverage period, executed color class by color class.

        Both classes evaluate ladder, obstacle clipping and oscillation
        test as arrays against frozen link positions and commit in one
        pass; a sensor blocked at step zero (or outside the colored tree)
        is deferred to a sequential repair pass against the settled
        positions, mirroring the serialized lock-based parent-change
        handshake of the paper.  Message accounting is structural — one
        NEIGHBOR_STATE transmission per preserved link of every sensor
        with a non-zero force — and therefore identical to the
        sequential mode on the same tree.
        """
        assert self._forces is not None and self._avoidance is not None
        config = world.config
        field = world.field
        sensors = world.sensors
        n = len(sensors)
        if n == 0:
            return
        tel = world.telemetry
        threshold = self._avoidance.threshold()
        two_step = (
            threshold > 0.0
            and self._avoidance.mode is OscillationMode.TWO_STEP
        )
        with tel.span("cpvf.pack"):
            starts = [s.position for s in sensors]
            xs = np.fromiter((p.x for p in starts), float, n)
            ys = np.fromiter((p.y for p in starts), float, n)
            connected = np.fromiter(
                (s.is_connected() for s in sensors), bool, n
            )
            if not connected.any():
                return
            rc_list = [s.communication_range for s in sensors]
            rc_min, rc_max = min(rc_list), max(rc_list)
            prev_x = prev_y = None
            if two_step:
                # NaN marks "no history yet": every comparison against it
                # is False, exactly like the scalar None check.
                prev = [s.previous_position for s in sensors]
                prev_x = np.fromiter(
                    (math.nan if p is None else p.x for p in prev), float, n
                )
                prev_y = np.fromiter(
                    (math.nan if p is None else p.y for p in prev), float, n
                )
            # One inflated pair set serves both the force evaluation
            # (masked to the exact range) and the repair pass's candidate
            # rows: a sensor within range at any point of the period was
            # within rc + 2 * max_step at the period start.
            pair_extra = 2.0 * config.max_step
            # Incremental pair maintenance reports under its own span so
            # the bench breakdown separates "answered from the maintained
            # store" (cpvf.pairs_incremental) from a from-scratch pair
            # generation (cpvf.pairs); see docs/performance.md.  The
            # prediction refreshes the spatial index, which the pair
            # request then reuses.
            span_name = "cpvf.pairs"
            if (
                tel.enabled
                and world.pairs_maintenance_hint(pair_extra) == "incremental"
            ):
                span_name = "cpvf.pairs_incremental"
        with tel.span(span_name):
            rows, cols, d2 = world.neighbor_pairs(pair_extra, with_d2=True)
        if tel.enabled:
            tel.count("cpvf.candidate_pairs", int(rows.size))
            evt = world.pairs_maintenance_last()
            if evt in ("memo", "derived", "serve", "repair"):
                tel.count("cpvf.pairs_repaired", 1)
            else:
                tel.count("cpvf.pairs_rebuilt", 1)
        with tel.span("cpvf.forces"):
            if rc_min == rc_max:
                limit = rc_min + 1e-9
                in_range = d2 <= limit * limit
            else:
                rcs = np.fromiter(rc_list, float, n) + 1e-9
                in_range = d2 <= rcs[rows] * rcs[rows]
            ux, uy, moving = self._force_direction_arrays(
                world, xs, ys, connected, rows, cols, in_range,
                symmetric=rc_min == rc_max,
            )
        with tel.span("cpvf.schedule"):
            schedule = self._get_schedule(world)
            # Connected sensors outside the colored tree (detached
            # subtrees) fall back to the full scalar treatment in the
            # repair pass.
            stray = moving & (schedule.colors < 0)
            repair: List[int] = np.flatnonzero(stray).tolist()
        colors = schedule.colors
        max_step = config.max_step
        base = world.base_station
        batch_span = tel.span("cpvf.batch")
        batch_span.__enter__()
        for color in (0, 1):
            idx = np.flatnonzero(moving & (colors == color))
            if tel.enabled:
                tel.count(f"cpvf.color{color}_sensors", int(idx.size))
            if idx.size == 0:
                continue
            pair_owner, nodes = schedule.links_for(idx)
            if nodes.size:
                # Each preserved link costs one state-exchange message
                # before the step-size decision (Section 4.2).
                world.routing.record_one_hop(
                    MessageType.NEIGHBOR_STATE, int(nodes.size)
                )
            safe_nodes = np.maximum(nodes, 0)
            link_x = np.where(nodes == BASE_STATION_ID, base.x, xs[safe_nodes])
            link_y = np.where(nodes == BASE_STATION_ID, base.y, ys[safe_nodes])
            steps = batched_ladder_steps(
                xs[idx],
                ys[idx],
                ux[idx],
                uy[idx],
                max_step,
                config.communication_range,
                pair_owner,
                link_x,
                link_y,
            )
            blocked = steps <= 0.0
            repair.extend(idx[blocked].tolist())
            movers = np.flatnonzero(~blocked)
            if movers.size == 0:
                continue
            midx = idx[movers]
            mux, muy = ux[midx], uy[midx]
            clipped = field.max_free_travel_batch(
                xs[midx], ys[midx], mux, muy, steps[movers]
            )
            dir_norm = np.hypot(mux, muy)
            safe = np.where(dir_norm > EPS, dir_norm, 1.0)
            end_x = np.where(
                dir_norm > EPS, xs[midx] + (mux / safe) * clipped, xs[midx]
            )
            end_y = np.where(
                dir_norm > EPS, ys[midx] + (muy / safe) * clipped, ys[midx]
            )
            if threshold > 0.0:
                if self._avoidance.mode is OscillationMode.ONE_STEP:
                    cancel = clipped < threshold
                else:
                    cancel = (
                        np.hypot(
                            end_x - prev_x[midx], end_y - prev_y[midx]
                        )
                        < threshold
                    )
                keep = ~cancel
                midx = midx[keep]
                end_x, end_y = end_x[keep], end_y[keep]
            dists = np.hypot(end_x - xs[midx], end_y - ys[midx])
            moves = [
                (sensors[i], x, y, d)
                for i, x, y, d in zip(
                    midx.tolist(), end_x.tolist(), end_y.tolist(), dists.tolist()
                )
            ]
            world.commit_moves(moves)
            # Keep the coordinate arrays live for the next color class:
            # its link positions must see this class's committed moves.
            xs[midx] = end_x
            ys[midx] = end_y
        # Oscillation history: every connected sensor's previous position
        # becomes its start-of-period position (the sequential mode does
        # the same, branch by branch); repair sensors keep their history
        # until their own pass below reads it.
        repair_set = set(repair)
        for i in np.flatnonzero(connected).tolist():
            if i not in repair_set:
                sensors[i].previous_position = starts[i]
        batch_span.__exit__(None, None, None)
        if not repair:
            return
        # The inflated pair rows double as the repair pass's candidate
        # lists: a sensor in range of a blocked one at any point of the
        # pass was within rc + 2 * max_step at the period start, and the
        # live-distance filter inside the parent-change scan discards the
        # extras, so the surviving candidates (and their order) match a
        # freshly built neighbour table.
        candidate_csr = None
        if self._allow_parent_change:
            offsets = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
            candidate_csr = (cols, offsets)
        if tel.enabled:
            tel.count("cpvf.repair_attempts", len(repair))
            tel.count("cpvf.stray_sensors", int(stray.sum()))
        self._repair_pass(
            world, sensors, repair, stray, ux, uy,
            candidate_csr, xs, ys, connected, prev_x, prev_y,
        )

    def _repair_pass(self, world: World, *args) -> None:
        """The batched period's repair pass, traced as one span."""
        with world.telemetry.span("cpvf.repair_groups"):
            self._repair_grouped(world, *args)

    def _repair_grouped(
        self,
        world: World,
        sensors,
        repair: List[int],
        stray,
        ux,
        uy,
        candidate_csr,
        xs,
        ys,
        connected,
        prev_x,
        prev_y,
    ) -> None:
        """Conflict-grouped repair: batch re-ladders over link-disjoint
        candidates instead of one scalar walk per sensor.

        Greedy edge-coloring over the candidates' required links: a
        round admits every pending sensor whose link set ({self, parent,
        children}; the immobile base station is excluded) is disjoint
        from the links already claimed this round, so an admitted
        sensor's frozen link positions cannot be invalidated by another
        admitted sensor's commit.  Admitted sensors are re-laddered with
        :func:`batched_ladder_steps` against the settled coordinate
        arrays and committed in one pass (obstacle clipping, oscillation
        masks and ``previous_position`` handling mirror
        :meth:`_finish_move` branch for branch); sensors the ladder
        still blocks take the serialized lock-subtree parent-change
        handshake one by one, exactly as a serialized pass would —
        LockTree / UnLockTree stay charged per attempt, preserving the
        paper's message accounting.  Without parent changes the grouped
        pass is bit-identical to one scalar walk per sensor (the
        serialized reference lives in ``tests/oracles.py``); with them,
        the group commit order can change which attempts a candidate
        makes — the same distributional relaxation ``mode="batched"``
        itself makes (pinned by ``tests/core/test_repair_groups.py``).
        Deferred sensors (link conflicts) retry in the next round; each
        round admits at least the first pending sensor, so the loop
        terminates.
        """
        assert self._avoidance is not None
        config = world.config
        field = world.field
        base = world.base_station
        max_step = config.max_step
        threshold = self._avoidance.threshold()
        tel = world.telemetry
        pending = list(repair)
        rounds = 0
        while pending:
            rounds += 1
            used: set = set()
            group: List[int] = []
            deferred: List[int] = []
            owners: List[int] = []
            nodes_list: List[int] = []
            for i in pending:
                parent, children = self._link_node_ids(world, i)
                links = {i, *children}
                if parent is not None and parent != BASE_STATION_ID:
                    links.add(parent)
                if not used.isdisjoint(links):
                    deferred.append(i)
                    continue
                used.update(links)
                k = len(group)
                group.append(i)
                count = 0
                if parent is not None:
                    owners.append(k)
                    nodes_list.append(parent)
                    count += 1
                for child in children:
                    owners.append(k)
                    nodes_list.append(child)
                    count += 1
                if stray[i] and count:
                    # Stray sensors bypassed the color batches, so their
                    # per-link state exchange is accounted here — at
                    # admission, once, like the scalar pass.
                    world.routing.record_one_hop(
                        MessageType.NEIGHBOR_STATE, count
                    )
            idx = np.asarray(group, dtype=np.intp)
            pair_owner = np.asarray(owners, dtype=np.intp)
            nodes = np.asarray(nodes_list, dtype=np.intp)
            safe_nodes = np.maximum(nodes, 0)
            link_x = np.where(nodes == BASE_STATION_ID, base.x, xs[safe_nodes])
            link_y = np.where(nodes == BASE_STATION_ID, base.y, ys[safe_nodes])
            steps = batched_ladder_steps(
                xs[idx],
                ys[idx],
                ux[idx],
                uy[idx],
                max_step,
                config.communication_range,
                pair_owner,
                link_x,
                link_y,
            )
            blocked = steps <= 0.0
            movers = np.flatnonzero(~blocked)
            if movers.size:
                midx = idx[movers]
                for i in midx.tolist():
                    # Like _finish_move: a sensor that found a step no
                    # longer needs the lock grant it was waiting for.
                    self._pending_locks.pop(i, None)
                mux, muy = ux[midx], uy[midx]
                clipped = field.max_free_travel_batch(
                    xs[midx], ys[midx], mux, muy, steps[movers]
                )
                dir_norm = np.hypot(mux, muy)
                safe = np.where(dir_norm > EPS, dir_norm, 1.0)
                end_x = np.where(
                    dir_norm > EPS, xs[midx] + (mux / safe) * clipped, xs[midx]
                )
                end_y = np.where(
                    dir_norm > EPS, ys[midx] + (muy / safe) * clipped, ys[midx]
                )
                keep = np.ones(midx.size, dtype=bool)
                if threshold > 0.0:
                    if self._avoidance.mode is OscillationMode.ONE_STEP:
                        keep = ~(clipped < threshold)
                    else:
                        keep = ~(
                            np.hypot(
                                end_x - prev_x[midx], end_y - prev_y[midx]
                            )
                            < threshold
                        )
                # _finish_move records the pre-move position as history
                # for cancelled and committed movers alike.
                for i in midx.tolist():
                    sensors[i].previous_position = sensors[i].position
                cidx = midx[keep]
                if cidx.size:
                    cend_x, cend_y = end_x[keep], end_y[keep]
                    dists = np.hypot(cend_x - xs[cidx], cend_y - ys[cidx])
                    moves = [
                        (sensors[i], x, y, d)
                        for i, x, y, d in zip(
                            cidx.tolist(),
                            cend_x.tolist(),
                            cend_y.tolist(),
                            dists.tolist(),
                        )
                    ]
                    world.commit_moves(moves)
                    xs[cidx] = cend_x
                    ys[cidx] = cend_y
            for k in np.flatnonzero(blocked).tolist():
                i = group[k]
                step = 0.0
                if self._allow_parent_change:
                    step = self._try_parent_change_batched(
                        world, sensors[i],
                        Vec2(float(ux[i]), float(uy[i])),
                        candidate_csr, xs, ys, connected,
                    )
                if step <= 0.0:
                    sensors[i].previous_position = sensors[i].position
                    continue
                self._finish_move(
                    world, sensors[i], Vec2(float(ux[i]), float(uy[i])), step
                )
                pos = sensors[i].position
                xs[i] = pos.x
                ys[i] = pos.y
            pending = deferred
        if tel.enabled and rounds:
            tel.count("cpvf.repair_rounds", rounds)

    def _try_parent_change_batched(
        self,
        world: World,
        sensor: Sensor,
        direction: Vec2,
        candidate_csr,
        xs,
        ys,
        connected,
    ) -> float:
        """Attempt a parent change for the batched repair pass.

        Makes the same (step, parent) choice as the sequential
        :meth:`_best_parent_ladder`, scanned fraction-outer: the shared
        child constraints are checked once per candidate step size and
        the scan stops at the first (largest) step some candidate admits,
        taking the first such candidate in order (base station first,
        then ascending ids).  Candidates come from the period's inflated
        pair rows, filtered against the live coordinate arrays; the
        inflation covers the most any sensor moves within the period, so
        the surviving candidates match a freshly built neighbour table.
        The handful of candidates per sensor is scanned as plain floats.
        """
        config = world.config
        sid = sensor.sensor_id
        px, py = sensor.position.x, sensor.position.y
        limit = config.communication_range + 1e-9
        csr_cols, csr_offsets = candidate_csr
        subtree = world.tree.subtree_of(sid)
        candidates = []
        for c in csr_cols[csr_offsets[sid]:csr_offsets[sid + 1]].tolist():
            if not connected[c] or c in subtree:
                continue
            cx, cy = xs.item(c), ys.item(c)
            if math.hypot(cx - px, cy - py) <= limit:
                candidates.append((c, cx, cy))
        base = world.base_station
        base_ok = (
            math.hypot(px - base.x, py - base.y)
            <= config.communication_range
        )
        if not candidates and not base_ok:
            return 0.0
        if not self._acquire_subtree_lock(world, sid, len(subtree)):
            return 0.0

        norm = math.hypot(direction.x, direction.y)
        if norm <= EPS or config.max_step <= 0.0:
            return 0.0
        unit_x, unit_y = direction.x / norm, direction.y / norm
        _, children = self._link_node_ids(world, sid)
        children_xy = [(xs.item(c), ys.item(c)) for c in children]
        # A required link that is already out of range invalidates every
        # candidate step, whatever the new parent.
        for cx, cy in children_xy:
            if math.hypot(px - cx, py - cy) > limit:
                return 0.0
        for fraction in STEP_FRACTIONS:
            step = fraction * config.max_step
            if step <= 0.0:
                return 0.0
            qx, qy = px + unit_x * step, py + unit_y * step
            if any(
                math.hypot(qx - cx, qy - cy) > limit for cx, cy in children_xy
            ):
                continue
            if base_ok and math.hypot(qx - base.x, qy - base.y) <= limit:
                world.reparent_in_tree(sid, BASE_STATION_ID)
                world.telemetry.count("cpvf.parent_changes", 1)
                return step
            for candidate, cx, cy in candidates:
                if math.hypot(qx - cx, qy - cy) <= limit:
                    world.reparent_in_tree(sid, candidate)
                    world.telemetry.count("cpvf.parent_changes", 1)
                    return step
        return 0.0

    def _finish_move(
        self, world: World, sensor: Sensor, direction: Vec2, step: float
    ) -> None:
        """Clip a validated step to free space, apply oscillation
        avoidance, and commit the move (the per-sensor tail shared by the
        sequential stage and the batched parent-change repairs)."""
        assert self._avoidance is not None
        # A sensor that found a way to move no longer needs the lock grant
        # it was waiting for; drop it so a later block starts a fresh
        # handshake instead of consuming a stale grant.
        self._pending_locks.pop(sensor.sensor_id, None)
        # Respect obstacles and the field boundary.
        step = world.field.max_free_travel(sensor.position, direction, step)
        # Inlined `position + direction.normalized() * step`.
        dir_norm = math.hypot(direction.x, direction.y)
        position = sensor.position
        if dir_norm <= EPS:
            planned_end = position
        else:
            planned_end = Vec2(
                position.x + (direction.x / dir_norm) * step,
                position.y + (direction.y / dir_norm) * step,
            )
        previous = sensor.previous_position
        if self._avoidance.should_cancel(
            step, sensor.position, planned_end, previous
        ):
            sensor.previous_position = sensor.position
            return
        sensor.previous_position = sensor.position
        sensor.motion.move_to(planned_end)

    def _link_node_ids(self, world: World, sensor_id: int) -> tuple:
        """``(parent_id_or_None, children_tuple)`` for one sensor.

        Derived lazily from the tree and cached keyed on
        ``tree.version``, so the per-period scalar paths stop re-copying
        the children set for every sensor every period.
        """
        tree = world.tree
        if self._link_ids_version != tree.version:
            self._link_ids = {}
            self._link_ids_version = tree.version
        cached = self._link_ids.get(sensor_id)
        if cached is None:
            children = tree.children.get(sensor_id)
            cached = (
                tree.parent.get(sensor_id),
                tuple(children) if children else (),
            )
            self._link_ids[sensor_id] = cached
        return cached

    def _required_neighbors(
        self, world: World, sensor: Sensor
    ) -> List[NeighborMotion]:
        """Connections the sensor must preserve: its parent and children."""
        parent, children = self._link_node_ids(world, sensor.sensor_id)
        required: List[NeighborMotion] = []
        if parent is not None and parent != BASE_STATION_ID:
            required.append(NeighborMotion.stationary(world.sensor(parent).position))
        elif parent == BASE_STATION_ID:
            required.append(NeighborMotion.stationary(world.base_station))
        for child in children:
            required.append(NeighborMotion.stationary(world.sensor(child).position))
        return required

    def _subtree_lock_depth(self, world: World, root: int) -> int:
        """BFS depth of the subtree rooted at ``root`` (0 for a leaf).

        The LockTree wave serializes along the deepest root-to-leaf path:
        the grant cannot be issued until the farthest descendant has
        acknowledged, so the handshake's loss-critical transmission count
        grows with this depth, not with the subtree size.
        """
        tree = world.tree
        depth = 0
        frontier = [root]
        seen = {root}
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for child in tree.children.get(node, ()):
                    if child not in seen:
                        seen.add(child)
                        next_frontier.append(child)
            if next_frontier:
                depth += 1
            frontier = next_frontier
        return depth

    def _acquire_subtree_lock(
        self, world: World, sensor_id: int, subtree_size: int
    ) -> bool:
        """Run the LockTree/UnLockTree handshake through the network model.

        Perfect network: charge the handshake and grant immediately (the
        seed behaviour).  Under latency the request is parked and the
        grant arrives ``latency`` periods later; under loss the critical
        down-and-back wave (2 * depth + 2 transmissions) retries with
        exponential backoff up to the delivery budget.  A timed-out
        handshake aborts to the safe state — the caller keeps the current
        parent and holds position, preserving the paper's serialization
        requirement.
        """
        net = world.network
        if net.is_perfect:
            world.routing.record_subtree_lock(
                world.tree, sensor_id, subtree_size=subtree_size
            )
            return True
        if net.latency > 0:
            due = self._pending_locks.get(sensor_id)
            if due is None:
                self._pending_locks[sensor_id] = (
                    world.period_index + net.latency
                )
                world.stats.record_net("delayed", net.latency)
                return False
            if world.period_index < due:
                return False
            del self._pending_locks[sensor_id]
        delivered, attempts = True, 1
        if net.lossy:
            depth = self._subtree_lock_depth(world, sensor_id)
            delivered, attempts = net.exchange(
                world, ("cpvf.lock", sensor_id), 2 * depth + 2
            )
        # Every attempt re-runs the whole lock/unlock wave on the air.
        world.routing.record_subtree_lock(
            world.tree, sensor_id, subtree_size=subtree_size, attempts=attempts
        )
        if not delivered:
            world.telemetry.count("cpvf.lock_aborts", 1)
        return delivered

    def _try_parent_change(
        self,
        world: World,
        sensor: Sensor,
        direction: Vec2,
        table: Dict[int, List[int]],
    ) -> float:
        """Attempt to adopt a new parent that unblocks the planned move.

        The sensor must lock its subtree first (accounted as LockTree /
        UnLockTree transmissions); candidate parents are connected
        neighbours outside the sensor's own subtree.  Returns the step size
        achievable under the best new parent (0 when none helps).
        """
        config = world.config
        subtree = world.tree.subtree_of(sensor.sensor_id)
        candidates: List[int] = []
        base_dist = sensor.position.distance_to(world.base_station)
        if base_dist <= config.communication_range:
            candidates.append(BASE_STATION_ID)
        for nb_id in table.get(sensor.sensor_id, []):
            nb = world.sensor(nb_id)
            if nb.is_connected() and nb_id not in subtree:
                candidates.append(nb_id)
        if not candidates:
            return 0.0

        if not self._acquire_subtree_lock(
            world, sensor.sensor_id, len(subtree)
        ):
            return 0.0

        return self._best_parent_ladder(world, sensor, direction, candidates)

    def _best_parent_ladder(
        self,
        world: World,
        sensor: Sensor,
        direction: Vec2,
        candidates: List[int],
    ) -> float:
        """Seed-faithful candidate scan: one full step ladder per candidate.

        The reference path of ``mode="sequential"``; the batched
        :meth:`_try_parent_change_batched` returns the same (step, parent)
        choice.
        """
        config = world.config
        children_motions = [
            NeighborMotion.stationary(world.sensor(c).position)
            for c in world.tree.children_of(sensor.sensor_id)
        ]
        best_step = 0.0
        best_parent: Optional[int] = None
        for candidate in candidates:
            parent_pos = (
                world.base_station
                if candidate == BASE_STATION_ID
                else world.sensor(candidate).position
            )
            required = children_motions + [NeighborMotion.stationary(parent_pos)]
            step = max_valid_step(
                sensor.position,
                direction,
                config.max_step,
                required,
                config.communication_range,
            )
            if step > best_step:
                best_step = step
                best_parent = candidate
        if best_parent is not None and best_step > 0.0:
            world.reparent_in_tree(sensor.sensor_id, best_parent)
            world.telemetry.count("cpvf.parent_changes", 1)
            return best_step
        return 0.0

    # ------------------------------------------------------------------
    # Lifecycle churn
    # ------------------------------------------------------------------
    def on_world_changed(self, world: World, change) -> None:
        """React to fault-injection events between periods.

        Failures: any lazily-waiting state tied to the dead sensor is
        dropped.  Sensors the tree repair could not re-attach (and freshly
        injected sensors) are re-dispatched toward the base station; their
        BUG2 paths are planned lazily on the next period, so a sensor that
        finds a connected neighbour immediately never walks.  Obstacle
        changes invalidate every in-flight path — BUG2 trajectories were
        planned against the old field and may now cut through (or detour
        around) geometry that no longer exists.
        """
        if self._planner is None or self._lazy is None:
            return
        if change.obstacles_changed:
            for sensor in world.sensors:
                if sensor.is_alive() and sensor.motion.has_path:
                    sensor.motion.stop()
        for sid in change.failed_ids:
            self._lazy.stop_waiting(world.sensor(sid))
            self._pending_locks.pop(sid, None)
        for sid in chain(change.disconnected_ids, change.added_ids):
            sensor = world.sensor(sid)
            self._pending_locks.pop(sid, None)
            if not sensor.is_alive() or sensor.is_connected():
                continue
            sensor.state = SensorState.MOVING_TO_CONNECT
            self._lazy.stop_waiting(sensor)
            sensor.motion.stop()

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def has_converged(self, world: World) -> bool:
        """CPVF does not converge reliably (Section 4.4); run the horizon."""
        return False
