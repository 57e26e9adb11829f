"""Reference implementations the parity suites compare production against.

The library keeps one implementation per job.  The slower, obviously
correct twins those fast paths were derived from live here, once, so the
parity tests can keep pinning exact agreement:

* :func:`neighbor_table_bruteforce` / :func:`neighbors_of_point_bruteforce`
  — dense scans behind :meth:`Radio.neighbor_table` and
  :meth:`Radio.neighbors_of_point`.
* :func:`disk_block` / :func:`disk_multiplicity` /
  :func:`disk_coverage_fraction` — coverage rasterised one disk per
  Python call, behind the batched :meth:`CoverageGrid.rasterize_disks`
  (:func:`grid_axes` recovers the grid's sample axes for them).
* :class:`BruteWorld` — a :class:`World` whose neighbour, connectivity and
  coverage queries recompute from scratch through those scans (no
  neighbour cache, pair store or incremental coverage tracker).
* :func:`polygon_contains` / :func:`polygon_on_boundary` — the
  point-in-polygon test rebuilding its edges per call, without the
  bounding-box rejection :meth:`Polygon.contains` applies first.
* :class:`ScanFloorRegistry` — the exhaustive per-floor scan behind
  :class:`FloorRegistry`'s indexed queries (batched and scalar).
* :class:`SequentialExpansionPlanner` — FLOOR's expansion search one
  searcher at a time, one registry query per probe point, instead of the
  two batched queries of :meth:`ExpansionPlanner.round_points`.
* :class:`ScalarWalkInvitations` — one scalar tree walk per invitation
  route instead of the batched :class:`TreeWalkIndex`.
* :class:`SerialRepairCPVF` — batched CPVF with the serialized repair
  pass (one scalar walk per blocked sensor) instead of conflict groups.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core import (
    CPVFScheme,
    ExpansionKind,
    ExpansionPlanner,
    ExpansionPoint,
    FloorRegistry,
    InvitationProtocol,
)
from repro.core.connectivity import max_valid_step_points
from repro.geometry import Circle, Segment, Vec2, circle_circle_intersections
from repro.network import BASE_STATION_ID, MessageType
from repro.network.radio import LINK_EPS
from repro.sim import World
from repro.spatial.cache import pairs_from_table

__all__ = [
    "polygon_contains",
    "polygon_on_boundary",
    "neighbor_table_bruteforce",
    "neighbors_of_point_bruteforce",
    "grid_axes",
    "disk_block",
    "disk_multiplicity",
    "disk_coverage_fraction",
    "BruteWorld",
    "ScanFloorRegistry",
    "SequentialExpansionPlanner",
    "ScalarWalkInvitations",
    "SerialRepairCPVF",
]


# ----------------------------------------------------------------------
# Polygon point tests
# ----------------------------------------------------------------------
def polygon_on_boundary(polygon, p: Vec2, eps: float = 1e-7) -> bool:
    """Whether ``p`` lies within ``eps`` of an edge (edges built per call)."""
    vertices = polygon.vertices
    n = len(vertices)
    return any(
        Segment(vertices[i], vertices[(i + 1) % n]).distance_to_point(p) <= eps
        for i in range(n)
    )


def polygon_contains(polygon, p: Vec2, include_boundary: bool = True) -> bool:
    """Ray-casting point-in-polygon test over every edge, no prefilter."""
    if polygon_on_boundary(polygon, p):
        return include_boundary
    inside = False
    vertices = polygon.vertices
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < x_cross:
                inside = not inside
    return inside


# ----------------------------------------------------------------------
# Radio
# ----------------------------------------------------------------------
def neighbor_table_bruteforce(radio, sensors) -> Dict[int, List[int]]:
    """Dense-matrix neighbour table.

    Compares *squared* distances against ``(rc_i + LINK_EPS)**2`` — the
    predicate the indexed table uses — so the accepted sets are identical.
    """
    ids = [s.sensor_id for s in sensors]
    if not ids:
        return {}
    xs = np.array([s.position.x for s in sensors])
    ys = np.array([s.position.y for s in sensors])
    rcs = np.array([s.communication_range for s in sensors]) + LINK_EPS
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    dist_sq = dx * dx + dy * dy
    rc_sq = rcs * rcs
    table: Dict[int, List[int]] = {i: [] for i in ids}
    for i in range(len(sensors)):
        for j in np.flatnonzero(dist_sq[i] <= rc_sq[i]):
            if j == i:
                continue
            if radio.line_of_sight and radio.field.segment_blocked(
                Segment(sensors[i].position, sensors[j].position)
            ):
                continue
            table[ids[i]].append(ids[int(j)])
    return table


def neighbors_of_point_bruteforce(
    radio, point: Vec2, sensors: Iterable, communication_range: float
) -> List[int]:
    """Linear scan of ``radio.link_exists`` over every sensor."""
    return [
        s.sensor_id
        for s in sensors
        if radio.link_exists(point, s.position, communication_range)
    ]


# ----------------------------------------------------------------------
# Coverage rasterisation
# ----------------------------------------------------------------------
def grid_axes(grid):
    """The grid's sample x coordinates (columns) and y coordinates (rows)."""
    px, py = grid.point_arrays()
    nx, ny = grid.shape
    return px.reshape(nx, ny)[:, 0], py.reshape(nx, ny)[0]


def disk_block(grid, cx: float, cy: float, radius: float):
    """The grid sub-block one disk touches, with its in-disk mask.

    Returns ``(i_slice, j_slice, hit)`` where ``hit`` is
    ``dx*dx + dy*dy <= radius*radius`` over the sub-block of the
    ``'ij'``-shaped grid inside the disk's ``searchsorted`` bounds, or
    ``None`` when the disk misses the grid.
    """
    xs, ys = grid_axes(grid)
    i0 = int(np.searchsorted(xs, cx - radius, side="left"))
    i1 = int(np.searchsorted(xs, cx + radius, side="right"))
    j0 = int(np.searchsorted(ys, cy - radius, side="left"))
    j1 = int(np.searchsorted(ys, cy + radius, side="right"))
    if i0 >= i1 or j0 >= j1:
        return None
    dx = xs[i0:i1, None] - cx
    dy = ys[None, j0:j1] - cy
    hit = dx * dx + dy * dy <= radius * radius
    return slice(i0, i1), slice(j0, j1), hit


def disk_multiplicity(grid, centers, radius: float) -> np.ndarray:
    """Flat per-cell count of the disks containing it, one disk at a time."""
    multiplicity = np.zeros(grid.shape, dtype=np.int32)
    for cx, cy in centers:
        block = disk_block(grid, cx, cy, radius)
        if block is not None:
            si, sj, hit = block
            multiplicity[si, sj] += hit
    return multiplicity.ravel()


def disk_coverage_fraction(field, positions, sensing_range, resolution) -> float:
    """Covered fraction of the free cells, rasterised one disk at a time."""
    grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
    free = ~obstacle_mask
    if sensing_range <= 0:
        covered = np.zeros(grid.num_points, dtype=bool)
    else:
        centers = [(p.x, p.y) for p in positions]
        covered = disk_multiplicity(grid, centers, sensing_range) > 0
    return grid.fraction(covered & free, domain=free)


# ----------------------------------------------------------------------
# World
# ----------------------------------------------------------------------
class BruteWorld(World):
    """A world answering every neighbour/coverage query from scratch."""

    def neighbor_table(self) -> Dict[int, List[int]]:
        return neighbor_table_bruteforce(self.radio, self.alive_sensors())

    def neighbor_pairs(self, extra_radius: float = 0.0, with_d2: bool = False):
        alive = self.alive_sensors()
        rows, cols, d2 = pairs_from_table(alive, self.neighbor_table())
        # pairs_from_table emits positions into the alive subset; remap to
        # full-list indices (== sensor ids) like the production view.
        ids = np.fromiter(
            (s.sensor_id for s in alive), dtype=np.intp, count=len(alive)
        )
        rows, cols = ids[rows], ids[cols]
        return (rows, cols, d2) if with_d2 else (rows, cols)

    def neighbor_rows(self, sensor_ids: Sequence[int]) -> Dict[int, List[int]]:
        table = self.neighbor_table()
        return {sid: list(table.get(sid, ())) for sid in sensor_ids}

    def sensors_near_base_station(self) -> List[int]:
        return neighbors_of_point_bruteforce(
            self.radio,
            self.base_station,
            self.alive_sensors(),
            self.config.communication_range,
        )

    def connected_component_of(self):
        return self.radio.connected_component_of(
            self.alive_sensors(),
            self.base_station,
            self.config.communication_range,
            table=self.neighbor_table(),
            base_neighbors=self.sensors_near_base_station(),
        )

    def coverage(self) -> float:
        return disk_coverage_fraction(
            self.field,
            [s.position for s in self.alive_sensors()],
            self.config.sensing_range,
            self.config.coverage_resolution,
        )


# ----------------------------------------------------------------------
# FLOOR registry and invitations
# ----------------------------------------------------------------------
class ScanFloorRegistry(FloorRegistry):
    """Floor registry answering spatial queries by exhaustive scan."""

    def covered_points(self, xs, ys, sensing_range, excludes):
        return np.array([
            self.is_point_covered(Vec2(x, y), sensing_range, exclude)[0]
            for x, y, exclude in zip(xs, ys, excludes)
        ], dtype=bool)

    def is_point_covered(self, point, sensing_range, exclude=()):
        excluded = set(exclude)
        floors_to_ask = self.floors.floors_possibly_covering(point, sensing_range)
        for floor_index in floors_to_ask:
            for record in self.records_on_floor(floor_index):
                if record.node_id in excluded:
                    continue
                if record.position.distance_to(point) <= sensing_range + 1e-9:
                    return True, floors_to_ask
        return False, floors_to_ask

    def neighbors_on_floor(self, node_id, radius):
        floor_index = self.floor_of(node_id)
        if floor_index is None:
            return []
        records = self._records.get(floor_index, {})
        me = records.get(node_id)
        if me is None:
            return []
        return [
            r
            for r in records.values()
            if r.node_id != node_id
            and r.position.distance_to(me.position) <= radius + 1e-9
        ]


class SequentialExpansionPlanner(ExpansionPlanner):
    """Expansion search asking the registry once per probe, per searcher."""

    def round_points(self, searchers, telemetry=None):
        return [self._search(owner, position) for owner, position in searchers]

    def _search(self, owner_id, position):
        points = []
        points.extend(self._flg_points(owner_id, position))
        points.extend(self._blg_points(owner_id, position))
        points.extend(self._iflg_points(owner_id, position))
        points.sort(key=lambda ep: ep.priority_key())
        return points

    def _is_uncovered(self, point, exclude):
        covered, _ = self.registry.is_point_covered(
            point, self.sensing_range, exclude=exclude
        )
        return not covered

    def _flg_points(self, owner_id, position):
        sensing_disk = Circle(position, self.sensing_range)
        floor_index = self.floors.floor_index(position.y)
        floor_segment = self.floors.floor_line_segment(floor_index)
        covered_piece = sensing_disk.clip_segment(floor_segment)
        if covered_piece is None or covered_piece.length() <= 1e-9:
            return []
        endpoints = [covered_piece.a, covered_piece.b]
        endpoints.sort(key=lambda p: p.x, reverse=True)
        points = []
        for frontier in endpoints:
            if not self.field.is_free(frontier):
                continue
            if not self._is_uncovered(frontier, exclude=[owner_id]):
                continue
            ep = self._ep_toward(position, frontier)
            if ep is not None and self._is_uncovered(ep, exclude=[owner_id]):
                points.append(ExpansionPoint(ep, ExpansionKind.FLG, owner_id))
        return points

    def _blg_points(self, owner_id, position):
        sensing_disk = Circle(position, self.sensing_range)
        points = []
        for segment in self.field.boundary_segments_within(sensing_disk):
            for frontier in self._boundary_frontier_points(segment, sensing_disk):
                if not self.field.is_free(frontier):
                    frontier = self.field.nearest_free(frontier)
                if not self._is_uncovered(frontier, exclude=[owner_id]):
                    continue
                ep = self._ep_toward(position, frontier)
                if ep is not None and self._is_uncovered(ep, exclude=[owner_id]):
                    points.append(ExpansionPoint(ep, ExpansionKind.BLG, owner_id))
        return points

    def _iflg_points(self, owner_id, position):
        neighbors = self.registry.neighbors_on_floor(
            owner_id, 2.0 * self.expansion_radius
        )
        if not neighbors:
            return []
        floor_index = self.floors.floor_index(position.y)
        inter_lines = [
            line
            for line in (
                self.floors.inter_floor_line_above(floor_index),
                self.floors.inter_floor_line_below(floor_index),
            )
            if line is not None
        ]
        if not inter_lines:
            return []
        my_circle = Circle(position, self.expansion_radius)
        points = []
        for record in neighbors:
            other_circle = Circle(record.position, self.expansion_radius)
            crossings = circle_circle_intersections(my_circle, other_circle)
            midpoint_x = (position.x + record.position.x) / 2.0
            for crossing in crossings:
                hole_lines = [
                    line
                    for line in inter_lines
                    if abs(crossing.y - position.y) > 1e-9
                    and (crossing.y - position.y) * (line - position.y) > 0
                ]
                if not hole_lines or not self.field.is_free(crossing):
                    continue
                hole_probe = Vec2(midpoint_x, hole_lines[0])
                if not self.field.is_free(hole_probe):
                    continue
                if not self._is_uncovered(hole_probe, exclude=[]):
                    continue
                if self._is_uncovered(
                    crossing, exclude=[owner_id, record.node_id]
                ):
                    points.append(
                        ExpansionPoint(crossing, ExpansionKind.IFLG, owner_id)
                    )
        return points


class ScalarWalkInvitations(InvitationProtocol):
    """Invitation protocol walking every tree route one chain at a time."""

    def _route_hops(self, tree, pairs):
        return [
            self.routing.tree_route_hops(tree, src, dst) for src, dst in pairs
        ]


# ----------------------------------------------------------------------
# CPVF repair
# ----------------------------------------------------------------------
class SerialRepairCPVF(CPVFScheme):
    """Batched CPVF whose repair pass walks blocked sensors one by one."""

    def _repair_pass(
        self, world, sensors, repair, stray, ux, uy,
        candidate_csr, xs, ys, connected, prev_x, prev_y,
    ) -> None:
        with world.telemetry.span("cpvf.repair"):
            for i in repair:
                self._repair_blocked(
                    world, sensors[i], Vec2(float(ux[i]), float(uy[i])),
                    record_messages=bool(stray[i]),
                    candidate_csr=candidate_csr,
                    xs=xs, ys=ys, connected=connected,
                )
                # Keep the live coordinate arrays in sync for later
                # repairs.
                pos = sensors[i].position
                xs[i] = pos.x
                ys[i] = pos.y

    def _repair_blocked(
        self, world, sensor, direction, record_messages,
        candidate_csr, xs, ys, connected,
    ) -> None:
        """Re-ladder one sensor against the settled link positions.

        Attempts a parent change when still blocked and finishes through
        the shared scalar tail.  ``record_messages`` is ``False`` for
        batch-deferred sensors (their state exchange was already
        accounted in the class batch) and ``True`` for stray sensors that
        bypassed the batch entirely.
        """
        config = world.config
        parent, children = self._link_node_ids(world, sensor.sensor_id)
        nodes = ([] if parent is None else [parent]) + list(children)
        positions = [
            world.base_station
            if node == BASE_STATION_ID
            else world.sensor(node).position
            for node in nodes
        ]
        links = [(pos.x, pos.y) for pos in positions]
        if record_messages and links:
            world.routing.record_one_hop(
                MessageType.NEIGHBOR_STATE, len(links)
            )
        step = max_valid_step_points(
            sensor.position.x,
            sensor.position.y,
            direction.x,
            direction.y,
            config.max_step,
            links,
            config.communication_range,
        )
        if step <= 0.0 and self._allow_parent_change:
            step = self._try_parent_change_batched(
                world, sensor, direction, candidate_csr,
                xs, ys, connected,
            )
        if step <= 0.0:
            sensor.previous_position = sensor.position
            return
        self._finish_move(world, sensor, direction, step)
