"""Point-in-polygon parity: production vs the per-call-edges oracle.

:meth:`Polygon.contains` rejects points outside its (slightly widened)
bounding box before looking at any edge, and reuses cached edges.  These
properties pin that the shortcut never changes an answer, including for
points on vertices and edges and just inside/outside the box margin.
"""

import math

from hypothesis import given, settings, strategies as st
from oracles import polygon_contains, polygon_on_boundary

from repro.geometry import Polygon, Vec2

coords = st.floats(min_value=-500.0, max_value=500.0)
sizes = st.floats(min_value=0.5, max_value=400.0)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
#: Offsets around the bounding box straddling the 1e-6 rejection margin
#: and the 1e-7 boundary tolerance.
MARGINS = (0.0, 1e-7, -1e-7, 1e-6, -1e-6, 1e-5, -1e-5)


def _rotated(points, center, angle):
    c, s = math.cos(angle), math.sin(angle)
    return [
        Vec2(
            center.x + (p.x - center.x) * c - (p.y - center.y) * s,
            center.y + (p.x - center.x) * s + (p.y - center.y) * c,
        )
        for p in points
    ]


@st.composite
def rectangles(draw):
    x, y, w, h = draw(coords), draw(coords), draw(sizes), draw(sizes)
    return Polygon.rectangle(x, y, x + w, y + h)


@st.composite
def rotated_rectangles(draw):
    rect = draw(rectangles())
    return Polygon(_rotated(rect.vertices, rect.centroid(), draw(angles)))


@st.composite
def stars(draw):
    """Non-convex star polygons with alternating radii."""
    center = Vec2(draw(coords), draw(coords))
    points = draw(st.integers(min_value=3, max_value=7))
    outer = draw(sizes)
    inner = outer * draw(st.floats(min_value=0.2, max_value=0.8))
    phase = draw(angles)
    return Polygon([
        center + Vec2.from_polar(outer if k % 2 == 0 else inner,
                                 phase + math.pi * k / points)
        for k in range(2 * points)
    ])


@st.composite
def near_degenerate(draw):
    """A polygon with one edge of length 1e-9..1e-5 (a split vertex)."""
    base = draw(st.one_of(rectangles(), rotated_rectangles(), stars()))
    vertices = list(base.vertices)
    k = draw(st.integers(min_value=0, max_value=len(vertices) - 1))
    tiny = draw(st.sampled_from((1e-9, 1e-8, 1e-7, 1e-6, 1e-5)))
    direction = draw(angles)
    vertices.insert(k + 1, vertices[k] + Vec2.from_polar(tiny, direction))
    return Polygon(vertices)


polygons = st.one_of(rectangles(), rotated_rectangles(), stars(), near_degenerate())


@st.composite
def probe_points(draw, polygon):
    """Vertices, edge points, edge-normal offsets and box-margin points."""
    vertices = polygon.vertices
    kind = draw(st.sampled_from(("vertex", "edge", "normal", "box", "free")))
    if kind == "vertex":
        return draw(st.sampled_from(vertices))
    if kind in ("edge", "normal"):
        edge = draw(st.sampled_from(polygon.edges()))
        p = edge.point_at(draw(st.floats(min_value=0.0, max_value=1.0)))
        if kind == "edge":
            return p
        d = edge.b - edge.a
        norm = math.hypot(d.x, d.y)
        if norm == 0.0:
            return p
        offset = draw(st.sampled_from(MARGINS))
        return Vec2(p.x - d.y / norm * offset, p.y + d.x / norm * offset)
    xmin, ymin, xmax, ymax = polygon.bounding_box()
    if kind == "box":
        dx, dy = draw(st.sampled_from(MARGINS)), draw(st.sampled_from(MARGINS))
        side = draw(st.sampled_from(("left", "right", "bottom", "top", "corner")))
        t = draw(st.floats(min_value=0.0, max_value=1.0))
        if side == "left":
            return Vec2(xmin - dx, ymin + (ymax - ymin) * t)
        if side == "right":
            return Vec2(xmax + dx, ymin + (ymax - ymin) * t)
        if side == "bottom":
            return Vec2(xmin + (xmax - xmin) * t, ymin - dy)
        if side == "top":
            return Vec2(xmin + (xmax - xmin) * t, ymax + dy)
        corner_x = draw(st.sampled_from((xmin - dx, xmax + dx)))
        corner_y = draw(st.sampled_from((ymin - dy, ymax + dy)))
        return Vec2(corner_x, corner_y)
    pad = 0.25 * max(xmax - xmin, ymax - ymin)
    return Vec2(
        draw(st.floats(min_value=xmin - pad, max_value=xmax + pad)),
        draw(st.floats(min_value=ymin - pad, max_value=ymax + pad)),
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_contains_matches_oracle(data):
    polygon = data.draw(polygons)
    for _ in range(8):
        p = data.draw(probe_points(polygon))
        for include_boundary in (True, False):
            assert polygon.contains(p, include_boundary) == polygon_contains(
                polygon, p, include_boundary
            ), (polygon.vertices, p, include_boundary)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_on_boundary_matches_oracle(data):
    polygon = data.draw(polygons)
    for _ in range(8):
        p = data.draw(probe_points(polygon))
        assert polygon.on_boundary(p) == polygon_on_boundary(polygon, p)


def test_box_rejection_applies_outside_the_margin_only():
    square = Polygon.rectangle(0.0, 0.0, 10.0, 10.0)
    # Inside the widened box the full test runs: boundary points count.
    assert square.contains(Vec2(0.0, 5.0))
    assert square.contains(Vec2(-5e-8, 5.0))
    assert not square.contains(Vec2(-5e-7, 5.0))
    # Just outside the margin, with or without the boundary included.
    for include_boundary in (True, False):
        assert not square.contains(Vec2(-1.1e-6, 5.0), include_boundary)
        assert not square.contains(Vec2(5.0, 10.0 + 1.1e-6), include_boundary)


def test_edges_and_bounding_box_are_cached():
    square = Polygon.rectangle(0.0, 0.0, 10.0, 10.0)
    assert square.edges() is square.edges()
    assert square.bounding_box() == (0.0, 0.0, 10.0, 10.0)
    # Caching adds no dataclass field: equality and hashing are unchanged.
    twin = Polygon.rectangle(0.0, 0.0, 10.0, 10.0)
    assert square == twin and hash(square) == hash(twin)
