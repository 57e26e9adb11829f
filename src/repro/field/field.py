"""The sensing field: a bounded rectangle with polygonal obstacles.

The field is the environment every scheme operates in.  It answers the
queries the paper's sensors are allowed to make:

* a sensor knows the boundary of the *field* (Section 3.1);
* a sensor can recognise the boundary of any obstacle *within its sensing
  range* (Section 3.1) — :meth:`Field.boundary_segments_within`;
* motion is blocked by obstacles and by the field boundary.

The field also provides the coverage-measurement machinery used by the
evaluation (fraction of non-obstacle area covered by at least one sensing
disk) and the free-space connectivity check the random-obstacle generator
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Circle, CoverageGrid, Polygon, Segment, Vec2
from .obstacles import Obstacle

__all__ = ["Field", "flood_fill_count"]


def flood_fill_count(free: np.ndarray, start: Tuple[int, int]) -> int:
    """Number of cells 4-connected to ``start`` in a 2-D boolean mask.

    Returns 0 when the start cell itself is not free.  The single
    flood-fill implementation shared by :meth:`Field.free_space_connected`
    and the scenario validator, so the two acceptance paths can never
    diverge on connectivity semantics.
    """
    nx, ny = free.shape
    if not free[start]:
        return 0
    visited = np.zeros_like(free, dtype=bool)
    visited[start] = True
    stack = [start]
    count = 0
    while stack:
        cx, cy = stack.pop()
        count += 1
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            mx, my = cx + dx, cy + dy
            if 0 <= mx < nx and 0 <= my < ny and free[mx, my] and not visited[mx, my]:
                visited[mx, my] = True
                stack.append((mx, my))
    return count


@dataclass
class Field:
    """A rectangular sensing field ``[0, width] x [0, height]`` with obstacles."""

    width: float
    height: float
    obstacles: List[Obstacle] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        self._grid_cache: dict[float, Tuple[CoverageGrid, np.ndarray]] = {}
        self._boundary = Polygon.rectangle(0.0, 0.0, self.width, self.height)
        #: Bumped on every obstacle mutation; consumers caching rasterised
        #: masks or visibility answers key their epochs on it.
        self.version: int = 0

    # ------------------------------------------------------------------
    # Obstacle mutation (lifecycle events)
    # ------------------------------------------------------------------
    def add_obstacle(self, obstacle: Obstacle) -> int:
        """Append an obstacle mid-run (e.g. a door closing); returns its index."""
        self.obstacles.append(obstacle)
        self._invalidate_obstacle_caches()
        return len(self.obstacles) - 1

    def remove_obstacle(self, index: int) -> Obstacle:
        """Remove the obstacle at ``index`` (e.g. a door re-opening)."""
        removed = self.obstacles.pop(index)
        self._invalidate_obstacle_caches()
        return removed

    def _invalidate_obstacle_caches(self) -> None:
        self._grid_cache.clear()
        self.version += 1

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the field rectangle."""
        return (0.0, 0.0, self.width, self.height)

    def boundary_polygon(self) -> Polygon:
        """The field rectangle as a polygon."""
        return self._boundary

    def boundary_edges(self) -> Tuple[Segment, ...]:
        """The four edges of the field rectangle."""
        return self._boundary.edges()

    def area(self) -> float:
        """Total rectangle area (including obstacle area)."""
        return self.width * self.height

    def free_area(self, resolution: float = 10.0) -> float:
        """Approximate area of the field minus obstacles."""
        grid, obstacle_mask = self.grid_and_obstacle_mask(resolution)
        free_fraction = 1.0 - grid.fraction(obstacle_mask)
        return free_fraction * self.area()

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def in_bounds(self, p: Vec2, margin: float = 0.0) -> bool:
        """Whether ``p`` lies inside the field rectangle (shrunk by ``margin``)."""
        return (
            margin <= p.x <= self.width - margin
            and margin <= p.y <= self.height - margin
        )

    def in_obstacle(self, p: Vec2) -> bool:
        """Whether ``p`` lies strictly inside some obstacle."""
        return any(ob.contains(p) for ob in self.obstacles)

    def is_free(self, p: Vec2) -> bool:
        """Whether ``p`` is a valid sensor position (in bounds, not in an obstacle)."""
        return self.in_bounds(p) and not self.in_obstacle(p)

    def clamp(self, p: Vec2) -> Vec2:
        """Project ``p`` back inside the field rectangle."""
        return Vec2(
            min(self.width, max(0.0, p.x)),
            min(self.height, max(0.0, p.y)),
        )

    def nearest_free(self, p: Vec2, step: float = 1.0, max_radius: float = 200.0) -> Vec2:
        """A free point near ``p`` (spiral search); ``p`` itself when free."""
        candidate = self.clamp(p)
        if self.is_free(candidate):
            return candidate
        radius = step
        while radius <= max_radius:
            for k in range(16):
                angle = 2.0 * math.pi * k / 16
                q = self.clamp(candidate + Vec2.from_polar(radius, angle))
                if self.is_free(q):
                    return q
            radius += step
        return candidate

    # ------------------------------------------------------------------
    # Motion queries
    # ------------------------------------------------------------------
    def segment_blocked(self, seg: Segment) -> bool:
        """Whether moving straight along ``seg`` is blocked.

        A move is blocked when it leaves the field rectangle or crosses the
        interior of any obstacle.
        """
        if not self.in_bounds(seg.a) or not self.in_bounds(seg.b):
            return True
        # Sample a few interior points against the bounds as well: both
        # endpoints being inside a convex rectangle already guarantees the
        # whole segment is inside, so only obstacles remain to be checked.
        return any(ob.blocks_segment(seg) for ob in self.obstacles)

    def first_obstacle_hit(
        self, seg: Segment
    ) -> Optional[Tuple[Obstacle, Vec2]]:
        """First obstacle the directed segment runs into, with the hit point."""
        best: Optional[Tuple[Obstacle, Vec2]] = None
        best_dist = math.inf
        for ob in self.obstacles:
            hit = ob.first_hit(seg)
            if hit is None:
                continue
            dist = seg.a.distance_to(hit)
            if dist < best_dist:
                best = (ob, hit)
                best_dist = dist
        return best

    def max_free_travel(self, start: Vec2, direction: Vec2, distance: float) -> float:
        """Longest prefix of a straight move that stays in free space.

        Returns a travel distance ``d <= distance`` such that
        ``start + direction * d`` is free and the path to it does not cross
        an obstacle.  Used by the virtual-force integrator to avoid stepping
        into obstacles or out of the field.
        """
        if distance <= 0:
            return 0.0
        norm = math.hypot(direction.x, direction.y)
        if norm <= 1e-9:
            return 0.0
        unit_x, unit_y = direction.x / norm, direction.y / norm
        if not self.obstacles:
            # Obstacle-free fast path in plain floats: a straight move is
            # admissible exactly when its endpoint stays in the rectangle
            # (the rectangle is convex and the start is checked too).
            if not self.in_bounds(start):
                return 0.0
            sx, sy = start.x, start.y
            tx, ty = sx + unit_x * distance, sy + unit_y * distance
            if 0.0 <= tx <= self.width and 0.0 <= ty <= self.height:
                return distance
            lo, hi = 0.0, distance
            for _ in range(24):
                mid = (lo + hi) / 2.0
                cx, cy = sx + unit_x * mid, sy + unit_y * mid
                if 0.0 <= cx <= self.width and 0.0 <= cy <= self.height:
                    lo = mid
                else:
                    hi = mid
            return lo
        unit = Vec2(unit_x, unit_y)
        lo, hi = 0.0, distance
        target = start + unit * distance
        if self.is_free(target) and not self.segment_blocked(Segment(start, target)):
            return distance
        # Binary search for the largest admissible travel distance.
        for _ in range(24):
            mid = (lo + hi) / 2.0
            candidate = start + unit * mid
            if self.is_free(candidate) and not self.segment_blocked(
                Segment(start, candidate)
            ):
                lo = mid
            else:
                hi = mid
        return lo

    def max_free_travel_batch(
        self,
        px: np.ndarray,
        py: np.ndarray,
        dir_x: np.ndarray,
        dir_y: np.ndarray,
        distances: np.ndarray,
    ) -> np.ndarray:
        """:meth:`max_free_travel` for a whole batch of rays at once.

        ``px, py`` are ray starts, ``dir_x, dir_y`` direction components
        (not necessarily unit — normalised here exactly like the scalar
        path) and ``distances`` the per-ray travel caps.  Rays whose swept
        bounding box cannot touch any obstacle run through a vectorised
        replica of the scalar arithmetic (same endpoint test, same 24-step
        bisection); rays near an obstacle fall back to the exact scalar
        query, so results match :meth:`max_free_travel` ray for ray.
        """
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        dir_x = np.asarray(dir_x, dtype=float)
        dir_y = np.asarray(dir_y, dtype=float)
        distances = np.asarray(distances, dtype=float)
        out = np.zeros(px.shape, dtype=float)
        norm = np.hypot(dir_x, dir_y)
        safe_norm = np.where(norm > 1e-9, norm, 1.0)
        ux = dir_x / safe_norm
        uy = dir_y / safe_norm
        in_start = (px >= 0.0) & (px <= self.width) & (py >= 0.0) & (py <= self.height)
        active = (distances > 0.0) & (norm > 1e-9) & in_start
        if not active.any():
            return out
        tx = px + ux * distances
        ty = py + uy * distances
        vectorizable = active
        if self.obstacles:
            # A ray can only be affected by an obstacle when its swept
            # bounding box overlaps the obstacle's; flagged rays keep the
            # exact scalar treatment (conservative inclusion is safe).
            margin = 1e-6
            bx0, bx1 = np.minimum(px, tx), np.maximum(px, tx)
            by0, by1 = np.minimum(py, ty), np.maximum(py, ty)
            near = np.zeros(px.shape, dtype=bool)
            for ob in self.obstacles:
                xmin, ymin, xmax, ymax = ob.bounding_box()
                near |= (
                    (bx1 >= xmin - margin)
                    & (bx0 <= xmax + margin)
                    & (by1 >= ymin - margin)
                    & (by0 <= ymax + margin)
                )
            near &= active
            for i in np.flatnonzero(near):
                out[i] = self.max_free_travel(
                    Vec2(px[i], py[i]),
                    Vec2(dir_x[i], dir_y[i]),
                    float(distances[i]),
                )
            vectorizable = active & ~near
            if not vectorizable.any():
                return out
        end_in = (tx >= 0.0) & (tx <= self.width) & (ty >= 0.0) & (ty <= self.height)
        full = vectorizable & end_in
        out[full] = distances[full]
        rem = np.flatnonzero(vectorizable & ~end_in)
        if rem.size:
            sx, sy = px[rem], py[rem]
            rux, ruy = ux[rem], uy[rem]
            lo = np.zeros(rem.shape, dtype=float)
            hi = distances[rem].copy()
            for _ in range(24):
                mid = (lo + hi) / 2.0
                cx = sx + rux * mid
                cy = sy + ruy * mid
                inb = (cx >= 0.0) & (cx <= self.width) & (cy >= 0.0) & (cy <= self.height)
                lo = np.where(inb, mid, lo)
                hi = np.where(inb, hi, mid)
            out[rem] = lo
        return out

    # ------------------------------------------------------------------
    # Sensing-range boundary queries (used by FLOOR's BLG expansion)
    # ------------------------------------------------------------------
    def boundary_segments_within(self, circle: Circle) -> List[Segment]:
        """Obstacle/field boundary portions inside a sensing disk.

        The paper assumes a sensor "can recognize the boundary of the
        obstacles within its sensing range" and knows the field boundary;
        this method returns exactly those visible boundary pieces, clipped
        to the sensing disk.
        """
        segments: List[Segment] = []
        candidate_edges = chain(
            self._boundary.edges(),
            *(ob.boundary_edges() for ob in self.obstacles),
        )
        for edge in candidate_edges:
            clipped = circle.clip_segment(edge)
            if clipped is not None and clipped.length() > 1e-9:
                segments.append(clipped)
        return segments

    # ------------------------------------------------------------------
    # Coverage measurement
    # ------------------------------------------------------------------
    def grid_and_obstacle_mask(
        self, resolution: float = 10.0
    ) -> Tuple[CoverageGrid, np.ndarray]:
        """A coverage grid over the field plus the mask of obstacle points.

        The pair is cached per resolution because the obstacle mask is
        relatively expensive and reused every time coverage is measured.
        """
        cached = self._grid_cache.get(resolution)
        if cached is not None:
            return cached
        grid = CoverageGrid(0.0, 0.0, self.width, self.height, resolution)
        if self.obstacles:
            obstacle_mask = self._rasterize_obstacles(grid)
        else:
            obstacle_mask = np.zeros(grid.num_points, dtype=bool)
        self._grid_cache[resolution] = (grid, obstacle_mask)
        return grid, obstacle_mask

    def _rasterize_obstacles(self, grid: CoverageGrid) -> np.ndarray:
        """Obstacle mask over the grid points.

        Axis-aligned rectangles (every canonical layout and generator) are
        rasterised with four vectorised comparisons: a grid point is
        interior exactly when it clears all four edges by more than the
        polygon's boundary epsilon, the same classification
        ``Obstacle.contains`` makes point by point.  Arbitrary polygons go
        through the vectorised ray-cast (``Obstacle.contains_points``),
        restricted to the points inside the polygon's bounding box; parity
        with the per-point predicate scan is pinned by
        ``tests/field/test_rasterize_parity.py``.
        """
        px, py = grid.point_arrays()
        mask = np.zeros(grid.num_points, dtype=bool)
        eps = 1e-7  # Polygon.on_boundary: the boundary is not interior
        for ob in self.obstacles:
            box = ob.axis_aligned_box()
            if box is not None:
                xmin, ymin, xmax, ymax = box
                mask |= (
                    (px - xmin > eps)
                    & (xmax - px > eps)
                    & (py - ymin > eps)
                    & (ymax - py > eps)
                )
                continue
            xmin, ymin, xmax, ymax = ob.bounding_box()
            near = (
                (px >= xmin - eps)
                & (px <= xmax + eps)
                & (py >= ymin - eps)
                & (py <= ymax + eps)
            )
            if near.any():
                mask[near] |= ob.contains_points(px[near], py[near])
        return mask

    def coverage_fraction(
        self,
        positions: Iterable[Vec2],
        sensing_range: float,
        resolution: float = 10.0,
    ) -> float:
        """Fraction of the non-obstacle field area covered by sensing disks."""
        grid, obstacle_mask = self.grid_and_obstacle_mask(resolution)
        centers = [p.as_tuple() for p in positions]
        covered = grid.coverage_mask(centers, sensing_range)
        free = ~obstacle_mask
        return grid.fraction(covered & free, domain=free)

    # ------------------------------------------------------------------
    # Free-space connectivity (precondition on valid obstacle layouts)
    # ------------------------------------------------------------------
    def free_space_connected(self, resolution: float = 20.0) -> bool:
        """Whether the non-obstacle area is a single connected region.

        Checked on a grid with 4-connectivity, which is adequate for the
        rectangular obstacle layouts used by the experiments.  A field with
        no free cells is reported as disconnected.
        """
        grid, obstacle_mask = self.grid_and_obstacle_mask(resolution)
        nx, ny = grid.shape
        free = (~obstacle_mask).reshape(nx, ny)
        total_free = int(free.sum())
        if total_free == 0:
            return False
        start = tuple(np.argwhere(free)[0])
        return flood_fill_count(free, start) == total_free

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def with_obstacles(self, obstacles: Sequence[Obstacle]) -> "Field":
        """A copy of this field with a different obstacle list."""
        return Field(self.width, self.height, list(obstacles))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Field({self.width:g} x {self.height:g}, "
            f"{len(self.obstacles)} obstacles)"
        )
