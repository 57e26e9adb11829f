"""Expansion-point discovery for FLOOR (Section 5.5.1).

A fixed sensor expands coverage by locating *expansion points* (EPs) on its
*expansion circle* — the circle of radius ``min(rc, rs)`` centred at its
position — and inviting movable sensors to relocate there.  Three kinds of
expansion are defined, in decreasing priority:

* **FLG** (floor-line-guided): the sensor finds the portion of its floor
  line inside its sensing range, takes the endpoint farthest from the y axis
  as the *frontier point*, and (if that point is not already covered) places
  the EP where its expansion circle crosses the segment toward the frontier.
* **BLG** (boundary-line-guided): the same construction applied to the
  field/obstacle boundary pieces visible in the sensing range, with frontier
  points obtained by walking the boundary with the left-hand rule.
* **IFLG** (inter-floor-line-guided): fills coverage holes between two
  neighbouring fixed sensors of the same floor and the inter-floor line,
  using the intersection points of their expansion circles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

from ..field import Field
from ..geometry import Circle, Segment, Vec2, circle_circle_intersections
from ..obs import NULL_TELEMETRY, Telemetry
from .floors import FloorGeometry
from .headers import FloorRegistry

__all__ = ["ExpansionKind", "ExpansionPoint", "ExpansionPlanner"]


class ExpansionKind(IntEnum):
    """Expansion types, ordered so that a smaller value means higher priority."""

    FLG = 0
    BLG = 1
    IFLG = 2


@dataclass(frozen=True)
class ExpansionPoint:
    """A candidate location for a movable sensor, owned by a fixed sensor."""

    position: Vec2
    kind: ExpansionKind
    owner_id: int

    def priority_key(self) -> tuple:
        """Sort key: priority first, then x (frontier-most last to break ties)."""
        return (int(self.kind), self.position.x, self.position.y)


@dataclass(frozen=True)
class _Candidate:
    """One prospective expansion point awaiting its two coverage tests.

    ``probe`` must be uncovered for the candidate to stand (the frontier
    point for FLG/BLG, the inter-floor hole probe for IFLG); the EP
    (``point``, derived from the probe for FLG/BLG) must then be
    uncovered too.  Each test ignores its own exclude ids.
    """

    searcher: int
    kind: ExpansionKind
    probe: Vec2
    probe_exclude: Tuple[int, ...]
    point: Optional[Vec2]
    point_exclude: Tuple[int, ...]


@dataclass
class ExpansionPlanner:
    """Finds expansion points for fixed sensors of the FLOOR scheme."""

    field: Field
    floors: FloorGeometry
    registry: FloorRegistry
    sensing_range: float
    expansion_radius: float

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def expansion_points(
        self, owner_id: int, position: Vec2
    ) -> List[ExpansionPoint]:
        """All currently uncovered expansion points of one fixed sensor.

        The caller is responsible for accounting the coverage-query message
        cost; the planner only asks the registry.  A round of one searcher.
        """
        return self.round_points([(owner_id, position)])[0]

    def round_points(
        self,
        searchers: Sequence[Tuple[int, Vec2]],
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> List[List[ExpansionPoint]]:
        """Expansion points of every ``(owner_id, position)`` searcher.

        Returns one priority-sorted list per searcher, each equal to what
        that searcher would find on its own: the registry does not change
        while a round collects points, so every coverage answer is a pure
        function of the point and its exclusions.  The round asks the
        registry twice — once for all frontier points and hole probes,
        then once for the EPs of the candidates that survived — so EPs
        are only constructed for live candidates.
        """
        with telemetry.span("floor.expansion.candidates"):
            candidates: List[_Candidate] = []
            for searcher, (owner_id, position) in enumerate(searchers):
                self._flg_candidates(searcher, owner_id, position, candidates)
                self._blg_candidates(searcher, owner_id, position, candidates)
                self._iflg_candidates(searcher, owner_id, position, candidates)
        candidates = self._uncovered(
            candidates, attrgetter("probe", "probe_exclude"), telemetry
        )
        with telemetry.span("floor.expansion.candidates"):
            located: List[_Candidate] = []
            for candidate in candidates:
                if candidate.point is None:
                    ep = self._ep_toward(
                        searchers[candidate.searcher][1], candidate.probe
                    )
                    if ep is None:
                        continue
                    candidate = replace(candidate, point=ep)
                located.append(candidate)
        located = self._uncovered(
            located, attrgetter("point", "point_exclude"), telemetry
        )
        with telemetry.span("floor.expansion.candidates"):
            result: List[List[ExpansionPoint]] = [[] for _ in searchers]
            for candidate in located:
                owner_id = searchers[candidate.searcher][0]
                result[candidate.searcher].append(
                    ExpansionPoint(candidate.point, candidate.kind, owner_id)
                )
            for points in result:
                points.sort(key=lambda ep: ep.priority_key())
        if telemetry.enabled:
            telemetry.count("floor.expansion_points", len(located))
        return result

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _uncovered(
        self,
        candidates: List[_Candidate],
        tested: Callable[[_Candidate], Tuple[Vec2, Tuple[int, ...]]],
        telemetry: Telemetry,
    ) -> List[_Candidate]:
        """The candidates whose ``tested`` point (and exclusions) the
        registry reports uncovered, in one batched query."""
        if not candidates:
            return []
        with telemetry.span("floor.expansion.coverage"):
            tests = [tested(c) for c in candidates]
            covered = self.registry.covered_points(
                [p.x for p, _ in tests], [p.y for p, _ in tests],
                self.sensing_range, [exclude for _, exclude in tests],
            )
            kept = [c for c, hit in zip(candidates, covered.tolist()) if not hit]
        if telemetry.enabled:
            telemetry.count("floor.coverage_queries", len(candidates))
        return kept

    def _ep_toward(self, position: Vec2, frontier: Vec2) -> Optional[Vec2]:
        """The EP on the expansion circle toward a frontier point."""
        direction = position.towards(frontier)
        if direction.norm() == 0.0:
            return None
        distance = min(self.expansion_radius, position.distance_to(frontier))
        candidate = position + direction * distance
        candidate = self.field.clamp(candidate)
        if not self.field.is_free(candidate):
            candidate = self.field.nearest_free(candidate)
        if candidate.distance_to(position) < 1e-6:
            return None
        return candidate

    # ------------------------------------------------------------------
    # FLG expansion
    # ------------------------------------------------------------------
    def _flg_candidates(
        self, searcher: int, owner_id: int, position: Vec2,
        out: List[_Candidate],
    ) -> None:
        sensing_disk = Circle(position, self.sensing_range)
        floor_index = self.floors.floor_index(position.y)
        floor_segment = self.floors.floor_line_segment(floor_index)
        covered_piece = sensing_disk.clip_segment(floor_segment)
        if covered_piece is None or covered_piece.length() <= 1e-9:
            return
        # Frontier points: the endpoints of the covered floor-line piece.  The
        # paper prefers the endpoint farthest from the y axis (largest x); the
        # other endpoint is also examined so that floors seeded in the middle
        # of the field (a clustered start) can grow toward the y axis and
        # reach the boundary, where BLG expansion takes over.
        endpoints = [covered_piece.a, covered_piece.b]
        endpoints.sort(key=lambda p: p.x, reverse=True)
        for frontier in endpoints:
            if not self.field.is_free(frontier):
                continue
            out.append(_Candidate(
                searcher, ExpansionKind.FLG, frontier, (owner_id,),
                None, (owner_id,),
            ))

    # ------------------------------------------------------------------
    # BLG expansion
    # ------------------------------------------------------------------
    def _blg_candidates(
        self, searcher: int, owner_id: int, position: Vec2,
        out: List[_Candidate],
    ) -> None:
        sensing_disk = Circle(position, self.sensing_range)
        visible = self.field.boundary_segments_within(sensing_disk)
        for segment in visible:
            for frontier in self._boundary_frontier_points(segment, sensing_disk):
                if not self.field.is_free(frontier):
                    frontier = self.field.nearest_free(frontier)
                out.append(_Candidate(
                    searcher, ExpansionKind.BLG, frontier, (owner_id,),
                    None, (owner_id,),
                ))

    @staticmethod
    def _boundary_frontier_points(
        segment: Segment, sensing_disk: Circle
    ) -> List[Vec2]:
        """Frontier candidates on a visible boundary piece.

        Walking the boundary with the left-hand rule until leaving the
        sensing circle ends at one of the clipped piece's endpoints, so both
        endpoints are returned (the uncovered one(s) become frontiers).
        """
        return [segment.a, segment.b]

    # ------------------------------------------------------------------
    # IFLG expansion
    # ------------------------------------------------------------------
    def _iflg_candidates(
        self, searcher: int, owner_id: int, position: Vec2,
        out: List[_Candidate],
    ) -> None:
        neighbors = self.registry.neighbors_on_floor(
            owner_id, 2.0 * self.expansion_radius
        )
        if not neighbors:
            return
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
            return
        my_circle = Circle(position, self.expansion_radius)
        for record in neighbors:
            other_circle = Circle(record.position, self.expansion_radius)
            crossings = circle_circle_intersections(my_circle, other_circle)
            midpoint_x = (position.x + record.position.x) / 2.0
            for crossing in crossings:
                # Keep only the intersection lying toward an inter-floor line
                # (the side where a hole between the two sensors and that
                # line could exist).
                hole_lines = [
                    line
                    for line in inter_lines
                    if abs(crossing.y - position.y) > 1e-9
                    and (crossing.y - position.y) * (line - position.y) > 0
                ]
                if not hole_lines:
                    continue
                if not self.field.is_free(crossing):
                    continue
                # There is a hole only if the point of the inter-floor line
                # midway between the two sensors is not covered by anyone.
                hole_probe = Vec2(midpoint_x, hole_lines[0])
                if not self.field.is_free(hole_probe):
                    continue
                # The EP itself must not already host (or be promised to)
                # another node.
                out.append(_Candidate(
                    searcher, ExpansionKind.IFLG, hole_probe, (),
                    crossing, (owner_id, record.node_id),
                ))
