"""Tests for the floor registry and coverage-status queries."""

import pytest
from oracles import ScanFloorRegistry

from repro.core import FloorGeometry, FloorRegistry
from repro.geometry import Vec2


def make_registry(rs=40.0, size=1000.0) -> FloorRegistry:
    floors = FloorGeometry(sensing_range=rs, field_height=size, field_width=size)
    return FloorRegistry(floors)


class TestRegistration:
    def test_register_files_by_floor(self):
        registry = make_registry()
        floor = registry.register(1, Vec2(100, 40))
        assert floor == 0
        assert registry.floor_of(1) == 0
        assert len(registry.records_on_floor(0)) == 1

    def test_unregister(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        registry.unregister(1)
        assert registry.floor_of(1) is None
        assert registry.count() == 0

    def test_promote_virtual(self):
        registry = make_registry()
        registry.register(9, Vec2(100, 40), virtual=True)
        assert registry.count(include_virtual=False) == 0
        registry.promote_virtual(9, Vec2(100, 42))
        assert registry.count(include_virtual=False) == 1

    def test_reregistration_overwrites(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        registry.register(1, Vec2(100, 200))
        assert registry.floor_of(1) == 2
        assert registry.count() == 1 or registry.floor_of(1) == 2


class TestHeaders:
    def test_header_is_smallest_x(self):
        registry = make_registry()
        registry.register(1, Vec2(300, 40))
        registry.register(2, Vec2(100, 50))
        registry.register(3, Vec2(200, 60))
        header = registry.header_of_floor(0)
        assert header.node_id == 2

    def test_header_tie_broken_by_id(self):
        registry = make_registry()
        registry.register(5, Vec2(100, 40))
        registry.register(2, Vec2(100, 50))
        assert registry.header_of_floor(0).node_id == 2

    def test_header_of_empty_floor(self):
        assert make_registry().header_of_floor(3) is None


class TestCoverageQueries:
    def test_covered_point(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        covered, floors_asked = registry.is_point_covered(Vec2(110, 50), 40.0)
        assert covered
        assert 0 in floors_asked

    def test_uncovered_point(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        covered, _ = registry.is_point_covered(Vec2(500, 500), 40.0)
        assert not covered

    def test_exclusion_list(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        covered, _ = registry.is_point_covered(Vec2(110, 50), 40.0, exclude=[1])
        assert not covered

    def test_virtual_nodes_count_for_coverage(self):
        registry = make_registry()
        registry.register(7, Vec2(100, 40), virtual=True)
        covered, _ = registry.is_point_covered(Vec2(100, 40), 40.0)
        assert covered


class TestNeighborsAndSummary:
    def test_neighbors_on_floor(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        registry.register(2, Vec2(140, 40))
        registry.register(3, Vec2(400, 40))
        neighbors = registry.neighbors_on_floor(1, radius=80.0)
        assert [r.node_id for r in neighbors] == [2]

    def test_neighbors_of_unknown_node(self):
        assert make_registry().neighbors_on_floor(99, radius=80.0) == []

    def test_compact_summary_merges_contiguous_runs(self):
        registry = make_registry(rs=40.0)
        for i, x in enumerate([0, 40, 80, 120]):
            registry.register(i, Vec2(x, 40))
        registry.register(10, Vec2(600, 40))
        summary = registry.compact_summary(0)
        assert summary == [(0.0, 120.0), (600.0, 600.0)]

    def test_compact_summary_empty_floor(self):
        assert make_registry().compact_summary(4) == []


class TestSpatialIndexParity:
    """The indexed registry queries must agree with the exhaustive scan."""

    def _random_registries(self, rng, rs=40.0, size=1000.0, n=80):
        indexed = make_registry(rs=rs, size=size)
        brute = ScanFloorRegistry(indexed.floors)
        for node_id in range(n):
            pos = Vec2(rng.uniform(0, size), rng.uniform(0, size))
            virtual = rng.random() < 0.2
            indexed.register(node_id, pos, virtual=virtual)
            brute.register(node_id, pos, virtual=virtual)
        # Churn: unregister some, re-register others elsewhere, promote one.
        for node_id in rng.sample(range(n), n // 5):
            indexed.unregister(node_id)
            brute.unregister(node_id)
        for node_id in rng.sample(range(n), n // 5):
            pos = Vec2(rng.uniform(0, size), rng.uniform(0, size))
            indexed.register(node_id, pos)
            brute.register(node_id, pos)
        promoted = Vec2(rng.uniform(0, size), rng.uniform(0, size))
        indexed.promote_virtual(0, promoted)
        brute.promote_virtual(0, promoted)
        return indexed, brute

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_is_point_covered_parity(self, seed):
        import random

        rng = random.Random(seed)
        indexed, brute = self._random_registries(rng)
        for _ in range(200):
            point = Vec2(rng.uniform(-50, 1050), rng.uniform(-50, 1050))
            sensing_range = rng.uniform(5.0, 120.0)
            exclude = rng.sample(range(80), rng.randint(0, 4))
            assert indexed.is_point_covered(
                point, sensing_range, exclude=exclude
            ) == brute.is_point_covered(point, sensing_range, exclude=exclude)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_neighbors_on_floor_parity(self, seed):
        import random

        rng = random.Random(seed)
        indexed, brute = self._random_registries(rng)
        for node_id in range(80):
            radius = rng.uniform(10.0, 200.0)
            fast = indexed.neighbors_on_floor(node_id, radius)
            slow = brute.neighbors_on_floor(node_id, radius)
            assert [r.node_id for r in fast] == [r.node_id for r in slow]
            assert fast == slow

    @pytest.mark.parametrize("seed", [3, 19, 71])
    def test_covered_points_batch_parity(self, seed):
        """One batched query answers every point like the scan, per point."""
        import random

        rng = random.Random(seed)
        indexed, brute = self._random_registries(rng, n=120)
        rs = 40.0
        reach = rs + 1e-9
        records = indexed.all_records()
        points, excludes = [], []
        for _ in range(300):
            points.append(Vec2(rng.uniform(-50, 1050), rng.uniform(-50, 1050)))
        for record in rng.sample(records, 60):
            # Probes at exactly rs + 1e-9 from a record, on each axis side.
            dx, dy = rng.choice([(reach, 0.0), (-reach, 0.0), (0.0, reach),
                                 (0.0, -reach)])
            points.append(Vec2(record.position.x + dx, record.position.y + dy))
        for _ in points:
            width = rng.choice([0, 1, 2])
            if width and rng.random() < 0.5:
                # Exclude registered ids, not only arbitrary ones.
                excludes.append(tuple(r.node_id for r in rng.sample(records, width)))
            else:
                excludes.append(tuple(rng.sample(range(120), width)))
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        fast = indexed.covered_points(xs, ys, rs, excludes)
        slow = [
            brute.is_point_covered(p, rs, exclude=ex)[0]
            for p, ex in zip(points, excludes)
        ]
        assert fast.tolist() == slow
        assert 0 < sum(slow) < len(slow)
        for p, ex, hit in zip(points, excludes, slow):
            assert indexed.is_point_covered(p, rs, exclude=ex) == (
                hit, brute.floors.floors_possibly_covering(p, rs)
            )

    def test_covered_points_honours_floor_and_exclusions(self):
        registry = make_registry(rs=40.0)
        registry.register(1, Vec2(100, 40))  # floor 0, line y=40
        registry.register(2, Vec2(100, 119))  # floor 1, line y=120
        xs, ys = [100, 100, 100, 100], [79.0, 79.0, 81.0, 81.0]
        excludes = [(), (1,), (), (2, 1)]
        # y=79 can ask floor 0 only (|120-79| > 40): node 2 is 40 m away
        # but filed on a floor the point does not query.
        assert registry.covered_points(xs, ys, 40.0, excludes).tolist() == [
            True, False, True, False
        ]
        assert registry.covered_points([], [], 40.0, []).tolist() == []
