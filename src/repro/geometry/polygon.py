"""Simple-polygon primitives.

Polygons represent obstacles, the sensing field boundary and Voronoi cells.
Only simple (non self-intersecting) polygons are supported, which covers all
shapes used in the paper (rectangles, convex cells, irregular obstacles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from .segment import Segment, on_segment, orientation
from .vec import EPS, Vec2

__all__ = ["Polygon"]

#: Widening of the bounding box outside which :meth:`Polygon.contains`
#: answers ``False`` without testing edges.  Any margin above the 1e-7
#: boundary tolerance is exact (see the method's docstring).
_BOX_SLACK = 1e-6


@dataclass(frozen=True)
class Polygon:
    """A simple polygon given by its vertices in order (either winding).

    The edge tuple and bounding box are derived once per instance (the
    polygon is immutable) and reused by every point and segment query.
    """

    vertices: Tuple[Vec2, ...]

    def __init__(self, vertices: Sequence[Vec2]):
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        object.__setattr__(self, "vertices", tuple(vertices))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def rectangle(xmin: float, ymin: float, xmax: float, ymax: float) -> "Polygon":
        """Axis-aligned rectangle with counter-clockwise winding."""
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("rectangle must have positive width and height")
        return Polygon(
            [Vec2(xmin, ymin), Vec2(xmax, ymin), Vec2(xmax, ymax), Vec2(xmin, ymax)]
        )

    @staticmethod
    def regular(center: Vec2, radius: float, sides: int) -> "Polygon":
        """Regular polygon with ``sides`` vertices inscribed in a circle."""
        if sides < 3:
            raise ValueError("a regular polygon needs at least three sides")
        return Polygon(
            [
                center + Vec2.from_polar(radius, 2.0 * math.pi * i / sides)
                for i in range(sides)
            ]
        )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    def signed_area(self) -> float:
        """Signed area (positive for counter-clockwise winding)."""
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            total += a.cross(b)
        return total / 2.0

    def area(self) -> float:
        """Absolute area."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(edge.length() for edge in self._edges)

    def centroid(self) -> Vec2:
        """Area centroid of the polygon."""
        signed = self.signed_area()
        if abs(signed) <= EPS:
            # Degenerate polygon: fall back to the vertex mean.
            sx = sum(v.x for v in self.vertices)
            sy = sum(v.y for v in self.vertices)
            return Vec2(sx / len(self.vertices), sy / len(self.vertices))
        cx = cy = 0.0
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            cross = a.cross(b)
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        factor = 1.0 / (6.0 * signed)
        return Vec2(cx * factor, cy * factor)

    @cached_property
    def _bounding_box(self) -> Tuple[float, float, float, float]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    @cached_property
    def _edges(self) -> Tuple[Segment, ...]:
        n = len(self.vertices)
        return tuple(
            Segment(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)
        )

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the polygon."""
        return self._bounding_box

    def edges(self) -> Tuple[Segment, ...]:
        """The boundary edges in vertex order."""
        return self._edges

    def is_convex(self) -> bool:
        """``True`` when the polygon is convex (collinear runs allowed)."""
        n = len(self.vertices)
        sign = 0
        for i in range(n):
            o = orientation(
                self.vertices[i],
                self.vertices[(i + 1) % n],
                self.vertices[(i + 2) % n],
            )
            if o == 0:
                continue
            if sign == 0:
                sign = o
            elif o != sign:
                return False
        return True

    def counter_clockwise(self) -> "Polygon":
        """The polygon with guaranteed counter-clockwise winding."""
        if self.signed_area() >= 0:
            return self
        return Polygon(tuple(reversed(self.vertices)))

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def contains(self, p: Vec2, include_boundary: bool = True) -> bool:
        """Point-in-polygon test (ray casting with boundary handling).

        A point farther than ``_BOX_SLACK`` outside the bounding box is
        rejected before any edge is examined.  The shortcut is exact: every
        edge lies inside the box, so the point is more than the 1e-7
        boundary tolerance from each of them, and its ray crosses either no
        edge (the point is above, below or right of the box) or every edge
        spanning its height (left of the box) — an even number, because
        the "vertex above the ray" flag changes sign in pairs around a
        closed cycle.
        """
        xmin, ymin, xmax, ymax = self._bounding_box
        if not (
            xmin - _BOX_SLACK <= p.x <= xmax + _BOX_SLACK
            and ymin - _BOX_SLACK <= p.y <= ymax + _BOX_SLACK
        ):
            return False
        if self.on_boundary(p):
            return include_boundary
        inside = False
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if p.x < x_cross:
                    inside = not inside
        return inside

    def on_boundary(self, p: Vec2, eps: float = 1e-7) -> bool:
        """Whether ``p`` lies on the polygon's boundary."""
        return any(edge.distance_to_point(p) <= eps for edge in self._edges)

    def contains_points(
        self, px, py, include_boundary: bool = True, eps: float = 1e-7
    ):
        """Vectorised :meth:`contains` over arrays of point coordinates.

        Returns a boolean array of the same shape as ``px``/``py``.  The
        arithmetic mirrors the scalar test operation by operation — the
        same ray-casting parity and the same clamped-projection boundary
        distance — so rasterising a polygon over a grid produces the same
        mask as calling :meth:`contains` per point.
        """
        import numpy as np

        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        inside = np.zeros(px.shape, dtype=bool)
        boundary = np.zeros(px.shape, dtype=bool)
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            dx, dy = b.x - a.x, b.y - a.y
            denom = dx * dx + dy * dy
            if denom <= EPS:
                # Near-degenerate edge: distance to the closer endpoint
                # (mirrors Segment.closest_point's degenerate branch).
                dist = np.minimum(
                    np.hypot(px - a.x, py - a.y), np.hypot(px - b.x, py - b.y)
                )
            else:
                t = ((px - a.x) * dx + (py - a.y) * dy) / denom
                t = np.minimum(1.0, np.maximum(0.0, t))
                dist = np.hypot(px - (a.x + dx * t), py - (a.y + dy * t))
            boundary |= dist <= eps
            if a.y != b.y:
                crosses = (a.y > py) != (b.y > py)
                x_cross = a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y)
                inside ^= crosses & (px < x_cross)
        if include_boundary:
            return inside | boundary
        return inside & ~boundary

    def distance_to_point(self, p: Vec2) -> float:
        """Distance from ``p`` to the polygon (zero when inside)."""
        if self.contains(p):
            return 0.0
        return min(edge.distance_to_point(p) for edge in self._edges)

    def boundary_distance_to_point(self, p: Vec2) -> float:
        """Distance from ``p`` to the polygon *boundary* (even when inside)."""
        return min(edge.distance_to_point(p) for edge in self._edges)

    def closest_boundary_point(self, p: Vec2) -> Vec2:
        """Closest point of the polygon boundary to ``p``."""
        best = None
        best_dist = math.inf
        for edge in self._edges:
            candidate = edge.closest_point(p)
            dist = candidate.distance_to(p)
            if dist < best_dist:
                best = candidate
                best_dist = dist
        assert best is not None
        return best

    # ------------------------------------------------------------------
    # Segment queries
    # ------------------------------------------------------------------
    def intersects_segment(self, seg: Segment) -> bool:
        """Whether the segment touches the polygon (boundary or interior)."""
        if self.contains(seg.a) or self.contains(seg.b):
            return True
        return any(edge.intersects(seg) for edge in self._edges)

    def segment_crosses_interior(self, seg: Segment, samples: int = 8) -> bool:
        """Whether the open segment passes through the polygon's interior.

        Boundary grazing does not count.  Implemented by sampling interior
        points of the segment, which is robust enough for the rectangular and
        mildly irregular obstacles used in the experiments.
        """
        for i in range(1, samples):
            t = i / samples
            p = seg.point_at(t)
            if self.contains(p, include_boundary=False):
                return True
        crossings = [edge for edge in self._edges if edge.intersects(seg)]
        if len(crossings) >= 2:
            midpoint = seg.midpoint()
            if self.contains(midpoint, include_boundary=False):
                return True
        return False

    def segment_intersections(self, seg: Segment) -> List[Vec2]:
        """All boundary intersection points with a segment, ordered along it."""
        points: List[Vec2] = []
        for edge in self._edges:
            p = edge.intersection(seg)
            if p is not None and not any(p.almost_equals(q) for q in points):
                points.append(p)
        points.sort(key=seg.a.distance_to)
        return points

    def scaled(self, factor: float, about: Vec2 | None = None) -> "Polygon":
        """Polygon scaled by ``factor`` about ``about`` (default: centroid)."""
        pivot = about if about is not None else self.centroid()
        return Polygon([pivot + (v - pivot) * factor for v in self.vertices])

    def translated(self, offset: Vec2) -> "Polygon":
        """Polygon translated by ``offset``."""
        return Polygon([v + offset for v in self.vertices])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polygon({len(self.vertices)} vertices, area={self.area():.3g})"
