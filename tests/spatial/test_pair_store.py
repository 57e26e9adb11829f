"""Incremental pair maintenance: the store must be invisible.

``NeighborCache.neighbor_pairs`` now answers most requests from a
:class:`~repro.spatial.PairStore` — an inflated-radius pair set anchored
at frozen positions, repaired in place when sensors out-drift their
slack budget.  The contract is *bit-identical* output: every answer,
whatever maintenance path produced it (serve, repair, rebuild, memo,
nesting derivation), must equal a fresh
``SpatialIndex.neighbor_pairs_directed`` build over the live positions —
same pairs, same lexicographic order, same float64 squared distances.
This module pins that contract across drift, teleports, mixed-radius
request sequences and population churn.
"""

import random

import numpy as np
import pytest

from repro.experiments.common import SMOKE_SCALE, make_config, make_world
from repro.geometry import Vec2
from repro.spatial import PairStore, SpatialIndex
from repro.spatial.cache import _LINK_EPS, _PAIRS_MEMO_LIMIT
from repro.spatial.pairstore import directed_pairs_sorted

FIELD = 200.0


def _world(n=60, seed=4):
    config = make_config(SMOKE_SCALE, sensor_count=n, seed=seed)
    return make_world(config, SMOKE_SCALE)


def _coords(rng, n, size=FIELD):
    x = np.array([rng.uniform(0.0, size) for _ in range(n)], dtype=float)
    y = np.array([rng.uniform(0.0, size) for _ in range(n)], dtype=float)
    return x, y


def _fresh_pairs(x, y, limit):
    """The reference pair generation the store must reproduce exactly."""
    idx = SpatialIndex(max(limit, 1e-9) * 1.001 / 2.0).build(
        np.column_stack([x, y])
    )
    return idx.neighbor_pairs_directed(limit)


def _world_arrays(world):
    xs = np.array([s.position.x for s in world.sensors], dtype=float)
    ys = np.array([s.position.y for s in world.sensors], dtype=float)
    return xs, ys


def _assert_exact(got, expected):
    grows, gcols, gd2 = got
    erows, ecols, ed2 = expected
    assert np.array_equal(grows, erows)
    assert np.array_equal(gcols, ecols)
    # Bit-identical float64 distances, not approx: downstream nesting
    # derivations re-mask these values against squared limits.
    assert np.array_equal(gd2, ed2)


def _jiggle(rng, world, step):
    for sensor in world.sensors:
        p = sensor.position
        sensor.motion.move_to(
            Vec2(
                min(FIELD, max(0.0, p.x + rng.uniform(-step, step))),
                min(FIELD, max(0.0, p.y + rng.uniform(-step, step))),
            )
        )


class TestDirectedPairsSorted:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_spatial_index_exactly(self, trial):
        rng = random.Random(900 + trial)
        n = rng.randint(2, 120)
        x, y = _coords(rng, n)
        limit = rng.uniform(5.0, 80.0)
        _assert_exact(
            directed_pairs_sorted(x, y, limit), _fresh_pairs(x, y, limit)
        )

    def test_degenerate_inputs(self):
        rows, cols, d2 = directed_pairs_sorted(
            np.array([1.0]), np.array([1.0]), 10.0
        )
        assert len(rows) == len(cols) == len(d2) == 0
        x = np.array([0.0, 1.0])
        rows, cols, d2 = directed_pairs_sorted(x, x, -1.0)
        assert len(rows) == 0


class TestPairStore:
    @pytest.mark.parametrize("trial", range(6))
    def test_serve_exact_within_drift_budget(self, trial):
        rng = random.Random(300 + trial)
        x, y = _coords(rng, 90)
        limit = 45.0
        store = PairStore.build(x, y, limit * 1.2)
        budget = 0.5 * (store.limit - limit) - 1e-6
        for _ in range(4):
            # Drift every sensor strictly inside the budget.
            theta = np.array([rng.uniform(0, 6.28) for _ in range(len(x))])
            r = np.array(
                [rng.uniform(0, budget * 0.95) for _ in range(len(x))]
            )
            lx = np.clip(store.ax + r * np.cos(theta), 0, FIELD)
            ly = np.clip(store.ay + r * np.sin(theta), 0, FIELD)
            assert len(store.movers(lx, ly, limit)) == 0
            _assert_exact(
                store.serve(lx, ly, limit), _fresh_pairs(lx, ly, limit)
            )

    @pytest.mark.parametrize("trial", range(6))
    def test_repaired_store_equals_rebuilt_store(self, trial):
        """After repair the arrays equal a fresh build over the anchors."""
        rng = random.Random(500 + trial)
        x, y = _coords(rng, 90)
        limit = 45.0
        store = PairStore.build(x, y, limit * 1.2)
        lx, ly = x.copy(), y.copy()
        for _ in range(3):
            # Teleport a few sensors far beyond the budget.
            for m in rng.sample(range(len(x)), rng.randint(1, 6)):
                lx[m] = rng.uniform(0, FIELD)
                ly[m] = rng.uniform(0, FIELD)
            movers = store.movers(lx, ly, limit)
            assert len(movers) > 0
            store.repair(lx, ly, movers)
            rebuilt = PairStore.build(store.ax, store.ay, store.limit)
            assert np.array_equal(store.rows, rebuilt.rows)
            assert np.array_equal(store.cols, rebuilt.cols)
            assert np.array_equal(store.counts, rebuilt.counts)
            # Movers are re-anchored, so the serve is exact again.
            assert len(store.movers(lx, ly, limit)) == 0
            _assert_exact(
                store.serve(lx, ly, limit), _fresh_pairs(lx, ly, limit)
            )

    def test_unserveable_requests_return_none(self):
        rng = random.Random(5)
        x, y = _coords(rng, 20)
        store = PairStore.build(x, y, 50.0)
        assert store.movers(x, y, 51.0) is None  # beyond inflated radius
        assert store.movers(x[:-1], y[:-1], 40.0) is None  # churned length


class TestWorldIncrementalPairs:
    """The cache-level integration: drift cycles, events, exactness."""

    def _expected(self, world, extra):
        xs, ys = _world_arrays(world)
        limit = world.config.communication_range + _LINK_EPS + extra
        return _fresh_pairs(xs, ys, limit)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_drift_cycle_parity_all_radii(self, seed):
        """Small per-period drift: serves/repairs stay exact vs rebuild."""
        world = _world(n=70, seed=seed)
        rng = random.Random(seed)
        cache = world._cache()
        extras = (7.5, 0.0)  # larger first: the 0.0 answer derives from it
        for period in range(10):
            _jiggle(rng, world, step=1.5)
            if period == 6:
                # A handful of teleports forces the repair path.
                for sid in (0, 3, 9):
                    world.sensors[sid].motion.move_to(
                        Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD))
                    )
            for extra in extras:
                got = world.neighbor_pairs(extra, with_d2=True)
                _assert_exact(got, self._expected(world, extra))
        events = cache.pair_events
        # The maintained store must actually carry the run: the first
        # period builds it, later periods serve or repair.
        assert events["rebuilds"] >= 1
        assert events["serves"] + events["repairs"] >= 3
        assert events["bypasses"] == 0

    def test_hint_predicts_maintenance_kind(self):
        world = _world(n=50, seed=7)
        rng = random.Random(7)
        for period in range(6):
            _jiggle(rng, world, step=2.0)
            hint = world.pairs_maintenance_hint()
            world.neighbor_pairs()
            last = world.pairs_maintenance_last()
            incremental = last in ("memo", "derived", "serve", "repair")
            assert (hint == "incremental") == incremental
            # Same epoch, second request: always a memo hit.
            assert world.pairs_maintenance_hint() == "incremental"
            world.neighbor_pairs()
            assert world.pairs_maintenance_last() == "memo"

    def test_mass_teleport_triggers_rebuild_and_stays_exact(self):
        world = _world(n=60, seed=3)
        rng = random.Random(3)
        world.neighbor_pairs()  # build the store
        for sensor in world.sensors:
            sensor.motion.move_to(
                Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD))
            )
        got = world.neighbor_pairs(with_d2=True)
        assert world.pairs_maintenance_last() == "rebuild"
        _assert_exact(got, self._expected(world, 0.0))

    def test_mixed_radius_sequence_regression(self):
        """0 -> r -> 0 across epochs: every answer exact, store swaps.

        The store is sized for the radius it last served; a larger
        request must rebuild it (movers() returns None), and the return
        to the smaller radius must serve from the bigger store by
        masking — never a stale or truncated pair set.
        """
        world = _world(n=60, seed=11)
        cache = world._cache()
        # The store is inflated by 20%, so an extra beyond 0.2 * rc
        # cannot be served from the 0-radius store.
        big = 0.25 * world.config.communication_range
        sequence = (0.0, big, 0.0)
        for period, extra in enumerate(sequence):
            # New epoch each step so the memo cannot short-circuit.
            world.sensors[0].motion.move_to(
                world.sensors[0].position + Vec2(0.01, 0.0)
            )
            got = world.neighbor_pairs(extra, with_d2=True)
            _assert_exact(got, self._expected(world, extra))
        # Step 1 builds, step 2 outgrows the store (rebuild at the
        # inflated radius), step 3 serves the smaller radius from it.
        assert cache.pair_events["rebuilds"] == 2
        assert cache.pair_events["serves"] == 1
        # And the 0-radius answer still equals the neighbour table.
        rows, cols = world.neighbor_pairs()
        table = world.neighbor_table()
        rebuilt = {sid: [] for sid in table}
        for r, c in zip(rows.tolist(), cols.tolist()):
            rebuilt[world.sensors[r].sensor_id].append(
                world.sensors[c].sensor_id
            )
        assert rebuilt == table

    def test_memo_is_bounded(self):
        world = _world(n=40, seed=2)
        cache = world._cache()
        for k in range(2 * _PAIRS_MEMO_LIMIT):
            world.neighbor_pairs(float(k))
        assert len(cache._pairs) <= _PAIRS_MEMO_LIMIT
        # Bounded, yet every answer stays exact (evicted radii recompute).
        got = world.neighbor_pairs(1.0, with_d2=True)
        _assert_exact(got, self._expected(world, 1.0))


class TestChurnInvalidation:
    """Population churn: rebuild, never repair, and survivor parity."""

    @pytest.mark.parametrize("trial", range(4))
    def test_churned_pairs_equal_fresh_world_of_survivors(self, trial):
        rng = random.Random(7000 + trial)
        world = _world(n=50, seed=trial)
        # Warm the store across a couple of drift epochs first.
        for _ in range(2):
            _jiggle(rng, world, step=1.0)
            world.neighbor_pairs()
        cache = world._cache()
        assert cache._pair_store is not None

        victims = rng.sample(
            [s.sensor_id for s in world.alive_sensors()], rng.randint(1, 8)
        )
        for sid in victims:
            world.remove_sensor(sid)
        # Churn drops the store wholesale — its anchors are meaningless
        # over a different population.
        assert cache._pair_store is None

        rows, cols = world.neighbor_pairs()
        # The churned cache's pair set equals the authoritative table of
        # the surviving population (ids, not positions).
        table = world.neighbor_table()
        rebuilt = {sid: [] for sid in table}
        for r, c in zip(rows.tolist(), cols.tolist()):
            rebuilt[world.sensors[r].sensor_id].append(
                world.sensors[c].sensor_id
            )
        assert rebuilt == table
        # With dead sensors the store is ineligible: the request must
        # have bypassed it, not repaired a stale one.
        assert world.pairs_maintenance_last() == "bypass"
        assert world.pairs_maintenance_hint() == "incremental"  # memo now

    def test_injection_forces_rebuild_not_repair(self):
        rng = random.Random(42)
        world = _world(n=40, seed=6)
        world.neighbor_pairs()
        cache = world._cache()
        repairs_before = cache.pair_events["repairs"]
        world.add_sensor(Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD)))
        assert cache._pair_store is None
        got = world.neighbor_pairs(with_d2=True)
        assert cache.pair_events["repairs"] == repairs_before
        assert world.pairs_maintenance_last() == "rebuild"
        xs, ys = _world_arrays(world)
        limit = world.config.communication_range + _LINK_EPS
        _assert_exact(got, _fresh_pairs(xs, ys, limit))
