"""Parity tests for the CPVF step-ladder fast paths.

``max_valid_step`` (float core), ``max_valid_step_points``
(stationary-links variant) and the seed-faithful
``max_valid_step_reference`` all claim to return the same ladder
decision; the batched repair pass's fraction-outer parent-change scan
claims to pick the same (step, parent) as the seed per-candidate
ladder.  These tests pin those equivalences with randomized trials so
an edit to one copy cannot silently diverge from the others.
"""

import copy
import random

import numpy as np
import pytest

from repro.core.connectivity import (
    NeighborMotion,
    max_valid_step,
    max_valid_step_points,
    max_valid_step_reference,
)
from repro.core.cpvf import CPVFScheme
from repro.field import Field
from repro.geometry import Vec2
from repro.sim import SimulationConfig, World


def random_motion(rng, stationary):
    current = Vec2(rng.uniform(-80, 80), rng.uniform(-80, 80))
    if stationary:
        return NeighborMotion.stationary(current)
    planned = Vec2(rng.uniform(-80, 80), rng.uniform(-80, 80))
    return NeighborMotion(current, planned)


class TestLadderParity:
    @pytest.mark.parametrize("trial", range(25))
    def test_fast_ladder_matches_reference(self, trial):
        rng = random.Random(trial)
        for _ in range(200):
            position = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            direction = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            max_step = rng.choice([0.0, rng.uniform(0.1, 30.0)])
            rc = rng.uniform(5.0, 70.0)
            neighbors = [
                random_motion(rng, rng.random() < 0.6)
                for _ in range(rng.randint(0, 4))
            ]
            expected = max_valid_step_reference(
                position, direction, max_step, neighbors, rc
            )
            assert max_valid_step(
                position, direction, max_step, neighbors, rc
            ) == expected
            if all(nb.current == nb.planned_end for nb in neighbors):
                links = [(nb.current.x, nb.current.y) for nb in neighbors]
                assert max_valid_step_points(
                    position.x,
                    position.y,
                    direction.x,
                    direction.y,
                    max_step,
                    links,
                    rc,
                ) == expected

    def test_degenerate_direction_and_zero_step(self):
        pos = Vec2(1.0, 2.0)
        nb = [NeighborMotion.stationary(Vec2(3.0, 2.0))]
        for args in [
            (pos, Vec2(0.0, 0.0), 10.0, nb, 5.0),
            (pos, Vec2(1e-12, 0.0), 10.0, nb, 5.0),
            (pos, Vec2(1.0, 0.0), 0.0, nb, 5.0),
        ]:
            assert max_valid_step(*args) == max_valid_step_reference(*args) == 0.0


class TestParentChangeParity:
    @pytest.mark.parametrize("trial", range(12))
    def test_fraction_outer_scan_matches_seed_ladder(self, trial):
        """The batched scan and the sequential ladder pick the same
        (step, parent).  The batched candidates come from the inflated
        pair rows the batched period builds, filtered live."""
        rng = random.Random(100 + trial)
        n = 14
        config = SimulationConfig(
            sensor_count=n,
            communication_range=rng.uniform(25.0, 50.0),
            sensing_range=30.0,
            duration=5.0,
            seed=trial,
            clustered_start=False,
        )
        positions = [
            Vec2(rng.uniform(0, 80), rng.uniform(0, 80)) for _ in range(n)
        ]
        world = World.create(config, Field(200.0, 200.0), positions)
        scheme = CPVFScheme()
        scheme.initialize(world)
        table = world.neighbor_table()
        rows, cols = world.neighbor_pairs(2.0 * config.max_step)
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
        xs = np.array([s.position.x for s in world.sensors])
        ys = np.array([s.position.y for s in world.sensors])
        connected = np.array([s.is_connected() for s in world.sensors])
        moved = False
        for sensor in world.sensors:
            if not sensor.is_connected():
                continue
            direction = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1)).normalized()
            if direction.norm() == 0.0:
                continue
            fast_world = copy.deepcopy(world)
            seed_world = copy.deepcopy(world)
            fast_scheme = CPVFScheme(mode="batched")
            seed_scheme = CPVFScheme(mode="sequential")
            fast_step = fast_scheme._try_parent_change_batched(
                fast_world, fast_world.sensor(sensor.sensor_id), direction,
                (cols, offsets), xs, ys, connected,
            )
            seed_step = seed_scheme._try_parent_change(
                seed_world, seed_world.sensor(sensor.sensor_id), direction, table
            )
            assert fast_step == seed_step
            assert fast_world.tree.parent_of(sensor.sensor_id) == (
                seed_world.tree.parent_of(sensor.sensor_id)
            )
            moved = True
        assert moved  # the layout produced at least one comparable sensor
