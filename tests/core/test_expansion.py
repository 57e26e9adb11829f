"""Tests for FLG / BLG / IFLG expansion-point discovery."""

import pytest

from repro.core import ExpansionKind, ExpansionPlanner, FloorGeometry, FloorRegistry
from repro.field import Field, Obstacle
from repro.geometry import Vec2


def make_planner(field=None, rc=60.0, rs=40.0):
    field = field or Field(1000.0, 1000.0)
    floors = FloorGeometry.for_field(field, rs)
    registry = FloorRegistry(floors)
    planner = ExpansionPlanner(
        field=field,
        floors=floors,
        registry=registry,
        sensing_range=rs,
        expansion_radius=min(rc, rs),
    )
    return planner, registry


class TestFLG:
    def test_lone_sensor_on_floor_line_expands_both_ways(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 40))
        points = planner.expansion_points(0, Vec2(500, 40))
        flg = [p for p in points if p.kind is ExpansionKind.FLG]
        assert len(flg) == 2
        xs = sorted(p.position.x for p in flg)
        assert xs[0] == pytest.approx(460.0, abs=1.0)
        assert xs[1] == pytest.approx(540.0, abs=1.0)
        assert all(abs(p.position.y - 40.0) < 1e-6 for p in flg)

    def test_covered_frontier_is_not_expanded(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 40))
        registry.register(1, Vec2(540, 40))  # already holds the +x frontier
        points = planner.expansion_points(0, Vec2(500, 40))
        flg = [p for p in points if p.kind is ExpansionKind.FLG]
        assert all(p.position.x < 500 for p in flg)

    def test_off_line_sensor_expands_toward_floor_line(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 60))
        points = planner.expansion_points(0, Vec2(500, 60))
        flg = [p for p in points if p.kind is ExpansionKind.FLG]
        assert flg, "a sensor within rs of its floor line must find FLG points"
        assert all(abs(p.position.y - 40.0) < 5.0 for p in flg)

    def test_expansion_points_sorted_by_priority(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(30, 40))  # near the left boundary: FLG + BLG
        points = planner.expansion_points(0, Vec2(30, 40))
        kinds = [int(p.kind) for p in points]
        assert kinds == sorted(kinds)


class TestBLG:
    def test_sensor_near_left_boundary_finds_blg_points(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(20, 300))
        points = planner.expansion_points(0, Vec2(20, 300))
        blg = [p for p in points if p.kind is ExpansionKind.BLG]
        assert blg, "a sensor seeing the field boundary must find BLG points"

    def test_sensor_in_the_middle_finds_no_blg_points(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 500))
        points = planner.expansion_points(0, Vec2(500, 500))
        assert all(p.kind is not ExpansionKind.BLG for p in points)

    def test_obstacle_boundary_triggers_blg(self):
        field = Field(1000.0, 1000.0, [Obstacle.rectangle(520, 300, 700, 500)])
        planner, registry = make_planner(field=field)
        registry.register(0, Vec2(490, 400))
        points = planner.expansion_points(0, Vec2(490, 400))
        blg = [p for p in points if p.kind is ExpansionKind.BLG]
        assert blg

    def test_expansion_points_avoid_obstacles(self):
        field = Field(1000.0, 1000.0, [Obstacle.rectangle(520, 0, 700, 200)])
        planner, registry = make_planner(field=field)
        registry.register(0, Vec2(500, 40))
        points = planner.expansion_points(0, Vec2(500, 40))
        for p in points:
            assert field.is_free(p.position)


class TestIFLG:
    def test_gap_between_floor_neighbors_is_filled(self):
        planner, registry = make_planner(rc=60.0, rs=40.0)
        registry.register(0, Vec2(500, 40))
        registry.register(1, Vec2(540, 40))
        # Pretend the rest of the floor line is already covered so that FLG
        # does not fire; only the inter-floor corner between 0 and 1 remains.
        for i, x in enumerate([380, 420, 460, 580, 620, 660]):
            registry.register(100 + i, Vec2(float(x), 40.0))
        points = planner.expansion_points(0, Vec2(500, 40))
        iflg = [p for p in points if p.kind is ExpansionKind.IFLG]
        assert iflg, "an uncovered inter-floor hole should produce an IFLG point"
        for p in iflg:
            assert p.position.y > 40.0 or p.position.y < 40.0

    def test_no_iflg_without_floor_neighbors(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 40))
        points = planner.expansion_points(0, Vec2(500, 40))
        assert all(p.kind is not ExpansionKind.IFLG for p in points)

    def test_no_iflg_when_hole_is_covered(self):
        planner, registry = make_planner(rc=60.0, rs=40.0)
        registry.register(0, Vec2(500, 40))
        registry.register(1, Vec2(540, 40))
        # A sensor sitting right on the inter-floor line above covers the hole.
        registry.register(2, Vec2(520, 80))
        points = planner.expansion_points(0, Vec2(500, 40))
        iflg_above = [
            p for p in points if p.kind is ExpansionKind.IFLG and p.position.y > 40
        ]
        assert not iflg_above


class TestPriorityKey:
    def test_priority_order_values(self):
        assert int(ExpansionKind.FLG) < int(ExpansionKind.BLG) < int(ExpansionKind.IFLG)


class TestRoundParity:
    """One batched round equals every searcher searching on its own."""

    @pytest.mark.parametrize("seed", range(8))
    def test_round_points_match_sequential_search(self, seed):
        import random

        from oracles import ScanFloorRegistry, SequentialExpansionPlanner

        from repro.field.layouts import (
            corridor_field,
            obstacle_free_field,
            two_obstacle_field,
        )

        rng = random.Random(seed)
        field = [obstacle_free_field, two_obstacle_field, corridor_field][
            seed % 3
        ](1000.0)
        planner, registry = make_planner(field)
        scan = ScanFloorRegistry(registry.floors)
        oracle = SequentialExpansionPlanner(
            field=field,
            floors=scan.floors,
            registry=scan,
            sensing_range=planner.sensing_range,
            expansion_radius=planner.expansion_radius,
        )
        searchers = []
        for node_id in range(60):
            # Mostly on floor lines (as relocated sensors sit), some off.
            floor = rng.randrange(registry.floors.floor_count)
            y = registry.floors.floor_line_y(floor)
            if rng.random() < 0.3:
                y += rng.uniform(-30.0, 30.0)
            pos = field.nearest_free(Vec2(rng.uniform(0.0, 1000.0), y))
            virtual = rng.random() < 0.2
            registry.register(node_id, pos, virtual=virtual)
            scan.register(node_id, pos, virtual=virtual)
            if rng.random() < 0.7:
                searchers.append((node_id, pos))
        # A searcher the registry does not know (no IFLG neighbours).
        searchers.append((999, Vec2(20.0, 40.0)))

        batched = planner.round_points(searchers)
        sequential = oracle.round_points(searchers)
        assert batched == sequential
        kinds = {p.kind for points in batched for p in points}
        assert kinds == set(ExpansionKind)
        for (owner, pos), points in zip(searchers, batched):
            assert planner.expansion_points(owner, pos) == points

    def test_round_counts_queries_and_points(self):
        from repro.obs import Telemetry

        planner, registry = make_planner()
        registry.register(0, Vec2(500, 40))
        registry.register(1, Vec2(540, 40))
        tel = Telemetry()
        found = planner.round_points([(0, Vec2(500, 40)), (1, Vec2(540, 40))], tel)
        summary = tel.summary()
        assert summary.counters["floor.expansion_points"] == sum(map(len, found))
        assert summary.counters["floor.coverage_queries"] > 0
        assert {"floor.expansion.candidates", "floor.expansion.coverage"} <= set(
            summary.phases
        )
