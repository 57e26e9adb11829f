"""The invitation protocol of FLOOR (Section 5.5.2 / Algorithm 2).

Fixed sensors that found an uncovered expansion point advertise it with an
``Invitation`` message that performs a TTL-bounded random walk through the
connected network.  Movable sensors collect the invitations they happen to
receive, pick the highest-priority one (smallest Euclidean distance breaking
ties), and answer with ``AcceptInvitation``; the inviter acknowledges the
first acceptance, installs a *virtual fixed node* at the EP so other
searches treat it as covered, and updates its ancestors' location records.

The period-synchronous simulator resolves one invitation round per period:
each advertised EP performs its random walk (every connected sensor is
reached with probability ``TTL / N_connected``, the expected reach of a
uniform random walk of ``TTL`` hops), the reached movable sensors choose
among the offers they saw, and conflicts are resolved first-come
first-served exactly as the acknowledgement rule does.  All message costs —
``Invitation`` walks, acceptances, acknowledgements and location updates —
are charged to the routing model so the Table 1 reproduction sees the same
traffic a distributed run would generate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..network import ConnectivityTree, MessageType, RoutingCostModel
from ..network.walks import TreeWalkIndex
from ..sensors import Sensor
from .expansion import ExpansionPoint

__all__ = ["InvitationAssignment", "InvitationProtocol"]


@dataclass(frozen=True)
class InvitationAssignment:
    """A movable sensor accepted an invitation to an expansion point."""

    movable_id: int
    expansion_point: ExpansionPoint


@dataclass
class InvitationProtocol:
    """Runs one invitation round per simulation period."""

    routing: RoutingCostModel
    ttl: int
    rng: random.Random
    _walk_cache: Optional[tuple] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def run_round(
        self,
        expansion_points: Sequence[ExpansionPoint],
        movable_sensors: Sequence[Sensor],
        connected_count: int,
        tree: ConnectivityTree,
        world=None,
    ) -> List[InvitationAssignment]:
        """Match advertised EPs with movable sensors for this period.

        Every EP is advertised (its random-walk cost is charged regardless
        of whether anyone answers, which is what dominates FLOOR's message
        overhead).  Returns the accepted assignments; each movable sensor
        and each EP appears at most once.

        ``world`` (optional) supplies the network-condition model.  Under
        a lossy network an invitation walk can die mid-walk (shrinking the
        reach of that EP's advertisement), an ``AcceptInvitation`` can be
        lost after its retry budget (the sensor simply tries again next
        round), and an ``Acknowledge`` can time out — the assignment is
        then cancelled before any relocation or registry slot is created.
        Without a world, or under the perfect network, the code path is
        the seed's, draw for draw.
        """
        if not expansion_points:
            return []

        net = world.network if world is not None else None
        lossy = net is not None and net.lossy

        # 1. Every advertised EP pays for its TTL-bounded random walk.  A
        #    lossy walk stops at its first dropped hop (the lost
        #    transmission itself is still charged); the surviving hop
        #    count shrinks that EP's advertisement reach below.
        if lossy:
            walk_hops: List[int] = []
            for index, ep in enumerate(expansion_points):
                hops = net.walk_hops(
                    world, ("floor.walk", index, ep.owner_id), self.ttl
                )
                walk_hops.append(hops)
                self.routing.record_random_walk(
                    min(self.ttl, hops + 1), MessageType.INVITATION
                )
        else:
            walk_hops = [self.ttl] * len(expansion_points)
            for _ in expansion_points:
                self.routing.record_random_walk(
                    self.ttl, MessageType.INVITATION
                )

        if not movable_sensors or connected_count <= 0:
            return []

        # 2. Determine which movable sensors each invitation reached.
        received: Dict[int, List[ExpansionPoint]] = {}
        for ep, hops in zip(expansion_points, walk_hops):
            reach_probability = min(1.0, hops / max(1, connected_count))
            for sensor in movable_sensors:
                if self.rng.random() <= reach_probability:
                    received.setdefault(sensor.sensor_id, []).append(ep)

        # 3. Each movable sensor picks its best offer and tries to accept it.
        movable_by_id = {s.sensor_id: s for s in movable_sensors}
        chosen: List[Tuple[int, ExpansionPoint]] = []
        for movable_id, offers in received.items():
            sensor = movable_by_id[movable_id]
            best = min(
                offers,
                key=lambda ep: (
                    int(ep.kind),
                    sensor.position.distance_to(ep.position),
                ),
            )
            chosen.append((movable_id, best))
        # All of the round's acceptance routes evaluated in one batch
        # (the tree does not mutate within a round).
        route_hops = self._route_hops(
            tree, [(mid, ep.owner_id) for mid, ep in chosen]
        )
        acceptances: List[Tuple[int, ExpansionPoint, int]] = []
        for (movable_id, best), hops in zip(chosen, route_hops):
            # AcceptInvitation travels back to the inviter over the tree;
            # every retry re-sends the whole route.
            attempts, delivered = 1, True
            if lossy:
                delivered, attempts = net.exchange(
                    world,
                    ("floor.accept", movable_id, best.owner_id),
                    max(1, hops),
                )
            self.routing.record_tree_unicast(
                tree, movable_id, best.owner_id,
                MessageType.ACCEPT_INVITATION, attempts=attempts, hops=hops,
            )
            if delivered:
                acceptances.append((movable_id, best, hops))

        # 4. Inviters acknowledge the first acceptance per EP; later ones are
        #    rejected (their senders will simply try again next period).
        assignments: List[InvitationAssignment] = []
        taken_eps: set = set()
        assigned_sensors: set = set()
        # Deterministic processing order: by EP priority, then sensor id.
        acceptances.sort(
            key=lambda item: (item[1].priority_key(), item[0])
        )
        for movable_id, ep, hops in acceptances:
            ep_key = (ep.owner_id, round(ep.position.x, 6), round(ep.position.y, 6))
            # The acknowledgement retraces the acceptance route in the
            # opposite direction; tree routes are symmetric and the tree
            # is unchanged since step 3, so the hop count carries over.
            attempts, delivered = 1, True
            if lossy:
                delivered, attempts = net.exchange(
                    world,
                    ("floor.ack", movable_id, ep.owner_id),
                    max(1, hops),
                )
            self.routing.record_tree_unicast(
                tree, ep.owner_id, movable_id,
                MessageType.ACKNOWLEDGE, attempts=attempts, hops=hops,
            )
            if not delivered:
                # Acknowledgement timed out: the movable sensor never
                # learns it was chosen, so no relocation starts, the EP
                # stays available and no registry slot is consumed.
                continue
            if ep_key in taken_eps or movable_id in assigned_sensors:
                continue
            taken_eps.add(ep_key)
            assigned_sensors.add(movable_id)
            assignments.append(InvitationAssignment(movable_id, ep))
            # The inviter installs a virtual fixed node and updates its
            # ancestors' location information up to the root.
            self.routing.record_to_base_station(
                tree, ep.owner_id, MessageType.LOCATION_UPDATE
            )
        return assignments

    # ------------------------------------------------------------------
    # Batched route evaluation
    # ------------------------------------------------------------------
    def _route_hops(
        self, tree: ConnectivityTree, pairs: List[Tuple[int, int]]
    ) -> List[int]:
        """Tree route hops for many ``(source, destination)`` pairs.

        A round's routes (acceptances + acknowledgements) are evaluated in
        one level-synchronous batch by :class:`TreeWalkIndex` (cached per
        ``tree.version``).  Only a tree whose id domain is too sparse to
        flatten (``TreeWalkIndex.degenerate``) walks each route with the
        scalar :meth:`RoutingCostModel.tree_route_hops`.  Both return
        identical hop counts (pinned by ``tests/network/test_tree_walks.py``).
        """
        if not pairs:
            return []
        index = self._walk_index(tree)
        if index is None:
            return [
                self.routing.tree_route_hops(tree, src, dst)
                for src, dst in pairs
            ]
        return index.route_hops(
            [src for src, _ in pairs], [dst for _, dst in pairs]
        ).tolist()

    def _walk_index(self, tree: ConnectivityTree) -> Optional[TreeWalkIndex]:
        cached = self._walk_cache
        if (
            cached is not None
            and cached[0] is tree
            and cached[1] == tree.version
        ):
            index = cached[2]
        else:
            index = TreeWalkIndex(tree)
            self._walk_cache = (tree, tree.version, index)
        return None if index.degenerate else index
