"""Reference implementations the parity suites compare production against.

The library keeps one implementation per job.  The slower, obviously
correct twins those fast paths were derived from live here, once, so the
parity tests can keep pinning exact agreement:

* :func:`neighbor_table_bruteforce` / :func:`neighbors_of_point_bruteforce`
  — dense scans behind :meth:`Radio.neighbor_table` and
  :meth:`Radio.neighbors_of_point`.
* :class:`BruteWorld` — a :class:`World` whose neighbour, connectivity and
  coverage queries recompute from scratch through those scans and
  ``Field.coverage_fraction`` (no neighbour cache, pair store or
  incremental coverage tracker).
* :class:`ScanFloorRegistry` — the exhaustive per-floor scan behind
  :class:`FloorRegistry`'s indexed queries.
* :class:`ScalarWalkInvitations` — one scalar tree walk per invitation
  route instead of the batched :class:`TreeWalkIndex`.
* :class:`SerialRepairCPVF` — batched CPVF with the serialized repair
  pass (one scalar walk per blocked sensor) instead of conflict groups.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core import CPVFScheme, FloorRegistry, InvitationProtocol
from repro.core.connectivity import max_valid_step_points
from repro.geometry import Segment, Vec2
from repro.network import MessageType
from repro.network.radio import LINK_EPS
from repro.sim import World
from repro.spatial.cache import pairs_from_table

__all__ = [
    "neighbor_table_bruteforce",
    "neighbors_of_point_bruteforce",
    "BruteWorld",
    "ScanFloorRegistry",
    "ScalarWalkInvitations",
    "SerialRepairCPVF",
]


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
        return self.field.coverage_fraction(
            [s.position for s in self.alive_sensors()],
            self.config.sensing_range,
            self.config.coverage_resolution,
        )


# ----------------------------------------------------------------------
# FLOOR registry and invitations
# ----------------------------------------------------------------------
class ScanFloorRegistry(FloorRegistry):
    """Floor registry answering spatial queries by exhaustive scan."""

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
        links = self._tree_link_positions(world, sensor)
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
