"""Obstacle models.

The paper allows "any number of obstacles of arbitrary shape, as long as the
field is connected".  We represent every obstacle as a simple polygon; a
convenience constructor is provided for the axis-aligned rectangles used in
the evaluation (Figures 3(c), 8(c), 13 and Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..geometry import Polygon, Segment, Vec2

__all__ = ["Obstacle"]


@dataclass(frozen=True)
class Obstacle:
    """A solid (impassable, opaque-to-sensing) polygonal region."""

    polygon: Polygon
    name: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def rectangle(
        xmin: float, ymin: float, xmax: float, ymax: float, name: str = ""
    ) -> "Obstacle":
        """Axis-aligned rectangular obstacle."""
        return Obstacle(Polygon.rectangle(xmin, ymin, xmax, ymax), name=name)

    @staticmethod
    def from_vertices(vertices: Sequence[Vec2], name: str = "") -> "Obstacle":
        """Obstacle from an explicit vertex list."""
        return Obstacle(Polygon(list(vertices)), name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, p: Vec2, include_boundary: bool = False) -> bool:
        """Whether ``p`` lies inside the obstacle.

        By default the boundary is *not* part of the obstacle, so sensors may
        travel along it (the BUG2 planner follows obstacle boundaries).
        """
        return self.polygon.contains(p, include_boundary=include_boundary)

    def contains_points(self, px, py, include_boundary: bool = False):
        """Vectorised :meth:`contains` over coordinate arrays.

        Same classification as the scalar predicate (boundary excluded by
        default), evaluated for a whole batch of points at once; the
        rasteriser uses it for non-axis-aligned polygons.
        """
        return self.polygon.contains_points(
            px, py, include_boundary=include_boundary
        )

    def blocks_segment(self, seg: Segment) -> bool:
        """Whether a straight move along ``seg`` would enter the obstacle."""
        return self.polygon.segment_crosses_interior(seg)

    def boundary_edges(self) -> Tuple[Segment, ...]:
        """The obstacle boundary as a tuple of edges."""
        return self.polygon.edges()

    def perimeter(self) -> float:
        """Perimeter of the obstacle (used by the BUG2 path-length bound)."""
        return self.polygon.perimeter()

    def area(self) -> float:
        """Area removed from the field by this obstacle."""
        return self.polygon.area()

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box of the obstacle."""
        return self.polygon.bounding_box()

    def axis_aligned_box(self) -> Optional[Tuple[float, float, float, float]]:
        """``(xmin, ymin, xmax, ymax)`` when the obstacle *is* an
        axis-aligned rectangle, else ``None``.

        Rectangles are what every generator and canonical layout emits;
        recognising them lets the field rasterise the obstacle mask with
        four vectorised comparisons instead of a per-point polygon test.
        """
        vertices = self.polygon.vertices
        if len(vertices) != 4:
            return None
        xs = sorted({v.x for v in vertices})
        ys = sorted({v.y for v in vertices})
        if len(xs) != 2 or len(ys) != 2:
            return None
        corners = {(v.x, v.y) for v in vertices}
        expected = {(x, y) for x in xs for y in ys}
        if corners != expected:
            return None
        return (xs[0], ys[0], xs[1], ys[1])

    def distance_to(self, p: Vec2) -> float:
        """Distance from ``p`` to the obstacle (zero when inside)."""
        return self.polygon.distance_to_point(p)

    def boundary_distance_to(self, p: Vec2) -> float:
        """Distance from ``p`` to the obstacle boundary."""
        return self.polygon.boundary_distance_to_point(p)

    def closest_boundary_point(self, p: Vec2) -> Vec2:
        """Closest point of the obstacle boundary to ``p``."""
        return self.polygon.closest_boundary_point(p)

    def first_hit(self, seg: Segment) -> Optional[Vec2]:
        """First point where ``seg`` (traversed a->b) meets the boundary.

        Returns ``None`` if the segment never touches the obstacle.
        """
        hits = self.polygon.segment_intersections(seg)
        if not hits:
            return None
        return hits[0]

    def overlaps(self, other: "Obstacle") -> bool:
        """Whether two obstacles overlap (allowed by the Fig 13 generator)."""
        if any(other.polygon.contains(v) for v in self.polygon.vertices):
            return True
        if any(self.polygon.contains(v) for v in other.polygon.vertices):
            return True
        return any(
            e1.intersects(e2)
            for e1 in self.boundary_edges()
            for e2 in other.boundary_edges()
        )
