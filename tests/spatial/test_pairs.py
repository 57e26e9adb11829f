"""The packed pair view of the neighbour cache vs the dict table.

``NeighborCache.neighbor_pairs`` feeds the batched CPVF kernel; its
accepted pair set (at ``extra_radius=0``) must be exactly the neighbour
table's, and the inflated sets must nest around it.
"""

import random

import numpy as np
from oracles import BruteWorld

from repro.experiments.common import SMOKE_SCALE, make_config, make_world
from repro.field import uniform_initial_positions
from repro.sim import World


def _world(n=60, seed=4):
    config = make_config(SMOKE_SCALE, sensor_count=n, seed=seed)
    return make_world(config, SMOKE_SCALE)


class TestNeighborPairs:
    def test_pairs_match_table(self):
        world = _world()
        table = world.neighbor_table()
        rows, cols = world.neighbor_pairs()
        rebuilt = {sid: [] for sid in table}
        for r, c in zip(rows.tolist(), cols.tolist()):
            rebuilt[world.sensors[r].sensor_id].append(
                world.sensors[c].sensor_id
            )
        assert rebuilt == table

    def test_pairs_follow_movement(self):
        world = _world()
        rows0, _ = world.neighbor_pairs()
        # Move a sensor far away: its pairs must drop out on requery.
        sensor = world.sensors[0]
        from repro.geometry import Vec2

        sensor.motion.move_to(Vec2(0.1, 0.1))
        rows1, cols1 = world.neighbor_pairs()
        table = world.neighbor_table()
        rebuilt = {sid: [] for sid in table}
        for r, c in zip(rows1.tolist(), cols1.tolist()):
            rebuilt[world.sensors[r].sensor_id].append(
                world.sensors[c].sensor_id
            )
        assert rebuilt == table

    def test_inflated_pairs_nest_exactly(self):
        world = _world()
        rows, cols, d2 = world.neighbor_pairs(with_d2=True)
        irows, icols, id2 = world.neighbor_pairs(10.0, with_d2=True)
        base = set(zip(rows.tolist(), cols.tolist()))
        inflated = set(zip(irows.tolist(), icols.tolist()))
        assert base <= inflated
        rc = world.config.communication_range
        # Every inflated-only pair is beyond rc; every base pair within.
        for (r, c), dd in zip(zip(irows.tolist(), icols.tolist()), id2.tolist()):
            if (r, c) not in base:
                assert dd > (rc + 1e-9) ** 2
        assert np.all(d2 <= (rc + 1e-9) ** 2)

    def test_exact_request_after_inflated_is_masked_subset(self):
        world = _world()
        cache = world._cache()
        irows, icols = cache.neighbor_pairs(10.0)
        rows, cols = cache.neighbor_pairs(0.0)
        table = world.neighbor_table()
        rebuilt = {sid: [] for sid in table}
        for r, c in zip(rows.tolist(), cols.tolist()):
            rebuilt[world.sensors[r].sensor_id].append(
                world.sensors[c].sensor_id
            )
        assert rebuilt == table

    def test_neighbor_rows_match_table_subset(self):
        world = _world()
        table = world.neighbor_table()
        ids = random.Random(2).sample(sorted(table), 10)
        # Fresh world state (no cached table) exercises the index path.
        world._cache().invalidate()
        rows = world.neighbor_rows(ids)
        assert rows == {sid: table[sid] for sid in ids}

    def test_bruteforce_pairs_match_indexed(self):
        world = _world()
        rows_i, cols_i = world.neighbor_pairs()
        brute = BruteWorld.create(world.config, world.field, world.positions())
        rows_b, cols_b = brute.neighbor_pairs()
        assert np.array_equal(rows_i, rows_b)
        assert np.array_equal(cols_i, cols_b)
