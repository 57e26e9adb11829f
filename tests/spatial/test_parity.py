"""Property-style parity tests: fast paths vs brute-force implementations.

Randomized layouts — with and without obstacles and line-of-sight
blocking — must produce *identical* neighbor tables, base-station
adjacency, connectivity verdicts and coverage fractions through the
spatial-index/cache/incremental paths and through the brute-force paths
they replace.
"""

import random

import numpy as np
import pytest
from oracles import disk_coverage_fraction, neighbor_table_bruteforce

from repro.field import Field, two_obstacle_field
from repro.geometry import Vec2
from repro.metrics import connectivity as conn_metrics
from repro.metrics.connectivity import connected_components, positions_are_connected
from repro.sim import SimulationConfig, World
from repro.spatial import IncrementalCoverage

FIELD_SIZE = 300.0


def random_world(trial, n=None, with_obstacles=False, line_of_sight=False):
    rng = random.Random(trial)
    n = n if n is not None else rng.randint(2, 60)
    field = (
        two_obstacle_field(FIELD_SIZE)
        if with_obstacles
        else Field(FIELD_SIZE, FIELD_SIZE)
    )
    config = SimulationConfig(
        sensor_count=n,
        communication_range=rng.uniform(20.0, 70.0),
        sensing_range=rng.uniform(15.0, 50.0),
        duration=10.0,
        coverage_resolution=15.0,
        seed=trial,
        clustered_start=False,
    )
    positions = []
    while len(positions) < n:
        p = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        if field.is_free(p):
            positions.append(p)
    world = World.create(config, field, initial_positions=positions)
    world.radio.line_of_sight = line_of_sight
    return world


def scatter(world, rng, count):
    """Move ``count`` random sensors to fresh free positions."""
    for _ in range(count):
        sensor = world.sensors[rng.randrange(len(world.sensors))]
        while True:
            p = Vec2(
                rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE)
            )
            if world.field.is_free(p):
                sensor.position = p
                break


CASES = [
    (False, False),
    (True, False),
    (True, True),
    (False, True),
]


class TestNeighborTableParity:
    @pytest.mark.parametrize("with_obstacles,line_of_sight", CASES)
    @pytest.mark.parametrize("trial", range(8))
    def test_indexed_table_matches_bruteforce(
        self, trial, with_obstacles, line_of_sight
    ):
        world = random_world(
            trial, with_obstacles=with_obstacles, line_of_sight=line_of_sight
        )
        brute = neighbor_table_bruteforce(world.radio, world.sensors)
        assert world.radio.neighbor_table(world.sensors) == brute
        # The world-level (cached) path agrees too — including list order.
        assert world.neighbor_table() == brute

    @pytest.mark.parametrize("trial", range(6))
    def test_heterogeneous_ranges(self, trial):
        world = random_world(trial)
        rng = random.Random(1000 + trial)
        for sensor in world.sensors:
            sensor.communication_range = rng.uniform(10.0, 80.0)
        brute = neighbor_table_bruteforce(world.radio, world.sensors)
        assert world.radio.neighbor_table(world.sensors) == brute


class TestBaseStationAndConnectivityParity:
    @pytest.mark.parametrize("with_obstacles,line_of_sight", CASES)
    @pytest.mark.parametrize("trial", range(8))
    def test_cached_queries_match_radio(
        self, trial, with_obstacles, line_of_sight
    ):
        world = random_world(
            trial, with_obstacles=with_obstacles, line_of_sight=line_of_sight
        )
        rc = world.config.communication_range
        radio = world.radio
        expected_near = radio.neighbors_of_point(
            world.base_station, world.sensors, rc
        )
        expected_component = radio.connected_component_of(
            world.sensors, world.base_station, rc
        )
        assert world.sensors_near_base_station() == expected_near
        assert world.connected_component_of() == expected_component
        assert world.network_is_connected() == radio.network_is_connected(
            world.sensors, world.base_station, rc
        )

    @pytest.mark.parametrize("trial", range(8))
    def test_cache_tracks_movement(self, trial):
        world = random_world(trial, n=40)
        rng = random.Random(2000 + trial)
        for _ in range(5):
            scatter(world, rng, 3)
            brute = neighbor_table_bruteforce(world.radio, world.sensors)
            assert world.neighbor_table() == brute
            assert world.sensors_near_base_station() == (
                world.radio.neighbors_of_point(
                    world.base_station,
                    world.sensors,
                    world.config.communication_range,
                )
            )

    def test_cache_invalidates_on_radio_parameter_change(self):
        world = random_world(5, n=30)
        before = world.neighbor_table()
        # Mutating a sensor's range mid-run must not serve the stale table.
        world.sensors[0].communication_range *= 2.0
        after = world.neighbor_table()
        assert after == neighbor_table_bruteforce(world.radio, world.sensors)
        assert world.sensors_near_base_station() == (
            world.radio.neighbors_of_point(
                world.base_station,
                world.sensors,
                world.config.communication_range,
            )
        )
        # Toggling line-of-sight blocking invalidates too.
        obstacle_world = random_world(6, n=30, with_obstacles=True)
        clear = obstacle_world.neighbor_table()
        obstacle_world.radio.line_of_sight = True
        blocked = obstacle_world.neighbor_table()
        assert blocked == neighbor_table_bruteforce(
            obstacle_world.radio, obstacle_world.sensors
        )
        assert before is not after  # copies, never the same object

    @pytest.mark.parametrize("trial", range(10))
    def test_metrics_components_match_bruteforce(self, trial):
        rng = random.Random(3000 + trial)
        n = rng.randint(0, 80)
        positions = [
            Vec2(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(n)
        ]
        rc = rng.uniform(5.0, 60.0)
        spatial = connected_components(positions, rc)
        # Force the double-loop path by lifting the size threshold.
        old = conn_metrics._SPATIAL_MIN_POSITIONS
        conn_metrics._SPATIAL_MIN_POSITIONS = 10**9
        try:
            brute = connected_components(positions, rc)
        finally:
            conn_metrics._SPATIAL_MIN_POSITIONS = old
        assert spatial == brute
        base = Vec2(0.0, 0.0)
        assert positions_are_connected(positions, rc, base) == (
            len(connected_components(positions + [base], rc)) == 1
        )


class TestCoverageParity:
    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", range(6))
    def test_incremental_matches_bruteforce_over_moves(
        self, trial, with_obstacles
    ):
        world = random_world(trial, n=25, with_obstacles=with_obstacles)
        rng = random.Random(4000 + trial)
        rs = world.config.sensing_range
        res = world.config.coverage_resolution
        for _ in range(6):
            brute = disk_coverage_fraction(world.field, world.positions(), rs, res)
            assert world.coverage() == brute
            scatter(world, rng, rng.randint(1, 5))

    def test_tracker_handles_population_change(self):
        field = Field(FIELD_SIZE, FIELD_SIZE)
        tracker = IncrementalCoverage(field, 30.0, 15.0)
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, FIELD_SIZE, size=(10, 2))
        tracker.update(pts)
        first = tracker.covered_fraction()
        assert first == disk_coverage_fraction(
            field, [Vec2(x, y) for x, y in pts], 30.0, 15.0
        )
        pts = rng.uniform(0, FIELD_SIZE, size=(25, 2))  # rebuild path
        tracker.update(pts)
        assert tracker.covered_fraction() == disk_coverage_fraction(
            field, [Vec2(x, y) for x, y in pts], 30.0, 15.0
        )

    def test_zero_radius_covers_nothing(self):
        field = Field(FIELD_SIZE, FIELD_SIZE)
        tracker = IncrementalCoverage(field, 0.0, 15.0)
        tracker.update(np.array([[10.0, 10.0]]))
        assert tracker.covered_fraction() == 0.0
