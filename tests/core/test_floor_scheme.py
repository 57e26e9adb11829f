"""Integration-style tests for the FLOOR scheme."""

import pytest

from repro.core import FloorScheme
from repro.experiments.common import SMOKE_SCALE, make_config, make_world
from repro.sensors import SensorState
from repro.sim import SimulationEngine


def run_floor(rc=60.0, rs=40.0, with_obstacles=False, seed=1, **scheme_kwargs):
    config = make_config(
        SMOKE_SCALE, communication_range=rc, sensing_range=rs, seed=seed
    )
    world = make_world(config, SMOKE_SCALE, with_obstacles=with_obstacles)
    scheme = FloorScheme(**scheme_kwargs)
    engine = SimulationEngine(world, scheme, trace_every=20)
    return engine.run(), world, scheme


class TestFloorEndToEnd:
    def test_coverage_improves_over_initial_layout(self):
        config = make_config(SMOKE_SCALE, seed=2)
        world = make_world(config, SMOKE_SCALE)
        initial_coverage = world.coverage()
        result = SimulationEngine(world, FloorScheme()).run()
        assert result.final_coverage > initial_coverage

    def test_all_sensors_end_in_a_floor_state(self):
        result, world, scheme = run_floor(seed=3)
        allowed = {
            SensorState.FIXED,
            SensorState.MOVABLE,
            SensorState.RELOCATING,
            SensorState.CONNECTED,
        }
        connected_states = {s.state for s in world.sensors if s.is_connected()}
        assert connected_states <= allowed

    def test_fixed_sensors_are_registered(self, ):
        result, world, scheme = run_floor(seed=4)
        registry = scheme._registry
        for sensor in world.sensors:
            if sensor.state is SensorState.FIXED:
                assert registry.floor_of(sensor.sensor_id) is not None

    def test_sensors_stay_in_free_space_with_obstacles(self):
        result, world, _ = run_floor(with_obstacles=True, seed=5)
        for sensor in world.sensors:
            assert world.field.is_free(sensor.position)

    def test_messages_are_recorded(self):
        result, _, _ = run_floor(seed=6)
        assert result.total_messages > 0

    def test_larger_ttl_generates_more_messages(self):
        low, _, _ = run_floor(seed=7, invitation_ttl=2)
        high, _, _ = run_floor(seed=7, invitation_ttl=12)
        assert high.total_messages > low.total_messages

    def test_moving_distance_below_field_diameter(self):
        result, world, _ = run_floor(seed=8)
        diameter = (world.field.width**2 + world.field.height**2) ** 0.5
        # No sensor should travel more than a few times the field diagonal.
        for sensor in world.sensors:
            assert sensor.moving_distance <= 3 * diameter

    def test_fixed_sensors_gravitate_to_floor_lines(self):
        result, world, scheme = run_floor(seed=9)
        floors = scheme._floors
        relocated = [
            s
            for s in world.sensors
            if s.state is SensorState.FIXED and s.moving_distance > 1.0
        ]
        if not relocated:
            pytest.skip("no sensor relocated in this draw")
        near_structure = sum(
            1
            for s in relocated
            if floors.distance_to_floor_line(s.position) <= world.config.sensing_range
        )
        assert near_structure == len(relocated)

    def test_convergence_is_reported_when_expansion_finishes(self):
        # With very few sensors the searchers run out of movable sensors but
        # keep advertising, so convergence is not guaranteed; this just
        # checks the has_converged contract is consistent.
        result, world, scheme = run_floor(seed=10)
        if result.converged_at is not None:
            assert not scheme._relocations

    def test_small_rc_still_produces_positive_coverage(self):
        result, _, _ = run_floor(rc=20.0, rs=40.0, seed=11)
        assert result.final_coverage > 0.05


class TestSeedFallback:
    def test_expansion_always_has_at_least_one_fixed_seed(self):
        """Even when every sensor volunteers as movable (dense cluster), the
        scheme must keep one anchored sensor so expansion can start."""
        config = make_config(SMOKE_SCALE, seed=7)
        world = make_world(config, SMOKE_SCALE)
        scheme = FloorScheme()
        scheme.initialize(world)
        for period in range(10):
            world.period_index = period
            scheme.step(world)
            if scheme._phase == 3:
                break
        assert scheme._phase == 3
        fixed = [s for s in world.sensors if s.state is SensorState.FIXED]
        assert fixed, "phase 2 must leave at least one fixed sensor as expansion seed"

    def test_expansion_makes_progress_from_dense_cluster(self):
        config = make_config(SMOKE_SCALE, seed=7)
        world = make_world(config, SMOKE_SCALE)
        initial = world.coverage()
        result = SimulationEngine(world, FloorScheme()).run()
        assert result.periods_executed > 5
        assert result.final_coverage > initial


class TestFloorBeatsCPVFWhenItShould:
    def test_floor_outperforms_cpvf_with_small_rc(self):
        """The paper's headline claim (Figs 3b vs 8b) at smoke scale."""
        from repro.core import CPVFScheme

        config = make_config(SMOKE_SCALE, communication_range=25.0, sensing_range=40.0, seed=12)
        world_floor = make_world(config, SMOKE_SCALE)
        floor_result = SimulationEngine(world_floor, FloorScheme()).run()

        world_cpvf = make_world(config, SMOKE_SCALE)
        cpvf_result = SimulationEngine(world_cpvf, CPVFScheme()).run()

        assert floor_result.final_coverage >= cpvf_result.final_coverage


class TestObstacleExitCorrection:
    """Regression: a sensor in BUG2 transit must never end a run inside an
    obstacle (ROADMAP repro: two-obstacle field at 400 m, n=60, rc=60,
    rs=40, seed=17, 120 s — sensors 44/54 used to finish in the interior
    of the "right" obstacle while RELOCATING)."""

    def test_relocating_sensors_exit_obstacles(self):
        from repro.field import two_obstacle_field
        from repro.sim import SimulationConfig, World

        config = SimulationConfig(
            sensor_count=60,
            communication_range=60.0,
            sensing_range=40.0,
            duration=120.0,
            seed=17,
        )
        world = World.create(config, two_obstacle_field(400.0))
        SimulationEngine(world, FloorScheme(), keep_world=True).run()
        stuck = [
            s.sensor_id for s in world.sensors if not world.field.is_free(s.position)
        ]
        assert stuck == []

    def test_connection_transit_exits_obstacles(self):
        """Phase-1 connection walks cut maze-wall corners the same way
        (found by the bench-scale maze-hotspot invariant sweep: sensors
        20/33 used to finish MOVING_TO_CONNECT inside a wall)."""
        from repro.experiments.common import BENCH_SCALE
        from repro.scenarios import DEFAULT_SUITE

        spec = DEFAULT_SUITE.get("maze-hotspot").spec(BENCH_SCALE)
        world = spec.build_world()
        SimulationEngine(world, FloorScheme(), keep_world=True).run()
        stuck = [
            s.sensor_id for s in world.sensors if not world.field.is_free(s.position)
        ]
        assert stuck == []


class TestExpansionSpans:
    def test_child_spans_cover_the_expansion_round(self):
        from repro.api import ScenarioSpec
        from repro.obs import Telemetry

        scenario = ScenarioSpec(
            field_size=300.0, layout="two-obstacle", sensor_count=24,
            duration=40.0, coverage_resolution=15.0, seed=1,
        )
        world = scenario.build_world(scenario.build_field())
        result = SimulationEngine(
            world, FloorScheme(), trace_every=None, telemetry=Telemetry()
        ).run()
        phases = result.telemetry.phases
        children = sum(
            phases[name].seconds
            for name in (
                "floor.expansion.candidates",
                "floor.expansion.coverage",
                "floor.invitations",
            )
        )
        assert children >= 0.95 * phases["floor.expansion_round"].seconds
        counters = result.telemetry.counters
        assert counters["floor.coverage_queries"] > 0
        assert counters["floor.expansion_points"] > 0
