"""The batched CPVF kernel: coloring, ladder parity, message accounting.

The conflict-freedom of the tree-level coloring and the decision parity
of the array ladder are what make ``mode="batched"`` semantically
faithful; this module pins both, plus the structural message-accounting
identity and the plateau agreement between the batched and sequential
dynamics.
"""

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CPVF_MODES,
    CPVFScheme,
    TreeSchedule,
    batched_ladder_steps,
    tree_level_colors,
)
from repro.core.connectivity import max_valid_step_points
from repro.core.lazy import LazyMovementController
from repro.core.oscillation import OscillationAvoidance
from repro.core.virtual_force import VirtualForceModel
from repro.experiments.common import (
    ExperimentScale,
    SMOKE_SCALE,
    make_config,
    make_world,
)
from repro.mobility import Bug2Planner, Handedness
from repro.network import BASE_STATION_ID, ConnectivityTree
from repro.sim import SimulationEngine


def random_tree(rng: random.Random, n: int) -> ConnectivityTree:
    """A random tree over ids ``0..n-1`` grown by uniform attachment."""
    tree = ConnectivityTree()
    order = list(range(n))
    rng.shuffle(order)
    attached = []
    for node in order:
        parent = BASE_STATION_ID if not attached else rng.choice(
            attached + [BASE_STATION_ID]
        )
        tree.attach(node, parent)
        attached.append(node)
    return tree


class TestTreeLevelColors:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(1, 60))
    def test_no_same_color_tree_edge(self, seed, n):
        """Same color implies no parent/child edge, for any random tree."""
        tree = random_tree(random.Random(seed), n)
        colors = tree_level_colors(tree, n)
        for child, parent in tree.parent.items():
            assert colors[child] in (0, 1)
            if parent != BASE_STATION_ID:
                assert colors[child] != colors[parent], (
                    f"tree edge {parent}->{child} within color "
                    f"{colors[child]}"
                )

    def test_base_station_children_are_color_one(self):
        tree = ConnectivityTree()
        tree.attach(0, BASE_STATION_ID)
        tree.attach(1, 0)
        tree.attach(2, 1)
        colors = tree_level_colors(tree, 3)
        assert list(colors) == [1, 0, 1]

    def test_outside_tree_is_uncolored(self):
        tree = ConnectivityTree()
        tree.attach(0, BASE_STATION_ID)
        colors = tree_level_colors(tree, 3)
        assert colors[0] == 1 and colors[1] == -1 and colors[2] == -1

    def test_schedule_links_match_tree(self):
        rng = random.Random(7)
        tree = random_tree(rng, 25)
        schedule = TreeSchedule.build(tree, 25)
        for sid in range(25):
            nodes = schedule.link_nodes[
                schedule.link_offsets[sid]:schedule.link_offsets[sid + 1]
            ]
            expected = {tree.parent[sid]} | tree.children_of(sid)
            assert set(nodes.tolist()) == expected
        # Same-color classes share no link: every link node of a sensor
        # has the opposite parity.
        colors = schedule.colors
        for sid in range(25):
            for node in schedule.link_nodes[
                schedule.link_offsets[sid]:schedule.link_offsets[sid + 1]
            ]:
                if node != BASE_STATION_ID:
                    assert colors[node] != colors[sid]

    def test_schedule_cache_invalidates_on_reparent(self):
        config = make_config(SMOKE_SCALE, seed=5)
        world = make_world(config, SMOKE_SCALE)
        scheme = CPVFScheme(mode="batched")
        scheme.initialize(world)
        first = scheme._get_schedule(world)
        assert scheme._get_schedule(world) is first  # cached
        members = world.tree.members()
        # Reparent some member under another non-descendant member.
        moved = None
        for sid in members:
            for new_parent in members:
                if new_parent == sid or new_parent == world.tree.parent_of(sid):
                    continue
                if sid not in world.tree.subtree_of(new_parent) and (
                    new_parent not in world.tree.subtree_of(sid)
                ):
                    world.reparent_in_tree(sid, new_parent)
                    moved = sid
                    break
            if moved is not None:
                break
        assert moved is not None
        second = scheme._get_schedule(world)
        assert second is not first
        assert second.version == world.tree.version


class TestBatchedLadderParity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_scalar_ladder(self, seed):
        """The array ladder returns the scalar decision, sensor by sensor."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 30))
        px = rng.uniform(0, 500, count)
        py = rng.uniform(0, 500, count)
        angles = rng.uniform(0, 2 * math.pi, count)
        ux, uy = np.cos(angles), np.sin(angles)
        max_step = float(rng.uniform(0.5, 5.0))
        rc = float(rng.uniform(20.0, 80.0))
        link_counts = rng.integers(0, 4, count)
        owners = np.repeat(np.arange(count), link_counts)
        # Mix of in-range and (sometimes) out-of-range links.
        radii = rng.uniform(0.0, rc * 1.2, owners.size)
        link_angles = rng.uniform(0, 2 * math.pi, owners.size)
        lx = px[owners] + radii * np.cos(link_angles)
        ly = py[owners] + radii * np.sin(link_angles)
        steps = batched_ladder_steps(
            px, py, ux, uy, max_step, rc, owners, lx, ly
        )
        for i in range(count):
            mask = owners == i
            links = list(zip(lx[mask].tolist(), ly[mask].tolist()))
            expected = max_valid_step_points(
                px[i], py[i], ux[i], uy[i], max_step, links, rc
            )
            assert steps[i] == expected

    def test_zero_direction_is_zero_step(self):
        steps = batched_ladder_steps(
            np.array([10.0]),
            np.array([10.0]),
            np.array([0.0]),
            np.array([0.0]),
            2.0,
            60.0,
            np.array([], dtype=np.intp),
            np.array([]),
            np.array([]),
        )
        assert steps[0] == 0.0

    def test_unconstrained_sensor_gets_full_step(self):
        steps = batched_ladder_steps(
            np.array([10.0]),
            np.array([10.0]),
            np.array([1.0]),
            np.array([0.0]),
            2.0,
            60.0,
            np.array([], dtype=np.intp),
            np.array([]),
            np.array([]),
        )
        assert steps[0] == 2.0


def _sequential_twin(world, config):
    """A sequential scheme wired to an already-initialized world copy."""
    scheme = CPVFScheme(mode="sequential", allow_parent_change=False)
    scheme._planner = Bug2Planner(world.field, Handedness.RIGHT)
    scheme._forces = VirtualForceModel(
        repulsion_distance=2.0 * config.sensing_range,
        obstacle_distance=config.sensing_range,
    )
    scheme._lazy = LazyMovementController(world.routing)
    scheme._avoidance = OscillationAvoidance(
        max_step=config.max_step, delta=None
    )
    return scheme


class TestMessageParity:
    def test_batched_message_counts_match_sequential_per_period(self):
        """From identical world snapshots, one batched period records the
        same transmissions a sequential period does.

        Without parent changes the accounting is purely structural (one
        NEIGHBOR_STATE per preserved link of every sensor with non-zero
        force), so the totals must be identical period for period; with
        parent changes the two modes reshape the tree mid-period in
        different orders and the comparison is only distributional.
        """
        config = make_config(SMOKE_SCALE, seed=3)
        world = make_world(config, SMOKE_SCALE)
        scheme = CPVFScheme(mode="batched", allow_parent_change=False)
        scheme.initialize(world)
        for period in range(40):
            snap = copy.deepcopy(world)
            twin = _sequential_twin(snap, config)
            before = snap.stats.total()
            twin.step(snap)
            sequential_delta = snap.stats.total() - before
            before = world.stats.total()
            scheme.step(world)
            batched_delta = world.stats.total() - before
            assert batched_delta == sequential_delta, (
                f"period {period}: batched recorded {batched_delta} "
                f"transmissions, sequential {sequential_delta}"
            )

    def test_first_period_parity_with_parent_changes(self):
        """Starting from one initialized state, the first coverage period
        records identical totals in both modes (no reparent happens that
        early in the smoke scenario)."""
        results = {}
        for mode in ("sequential", "batched"):
            config = make_config(SMOKE_SCALE, seed=3)
            world = make_world(config, SMOKE_SCALE)
            scheme = CPVFScheme(mode=mode)
            scheme.initialize(world)
            before = world.stats.total()
            scheme.step(world)
            results[mode] = world.stats.total() - before
        assert results["batched"] == results["sequential"]


class TestPlateauParity:
    def test_batched_reaches_sequential_plateau(self):
        """Fig 3-style run: the batched dynamics plateau within two
        coverage points of the sequential dynamics."""
        scale = ExperimentScale(
            field_size=500.0,
            sensor_count=70,
            duration=250.0,
            coverage_resolution=12.5,
        )
        coverages = {}
        for mode in ("sequential", "batched"):
            config = make_config(scale, seed=7)
            world = make_world(config, scale)
            engine = SimulationEngine(
                world, CPVFScheme(mode=mode), trace_every=10**9
            )
            coverages[mode] = engine.run().final_coverage
        gap = abs(coverages["batched"] - coverages["sequential"])
        assert gap <= 0.02, coverages
        # Both reach a meaningful plateau (not a degenerate agreement).
        assert coverages["sequential"] > 0.5


class TestModeSelection:
    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown CPVF mode"):
            CPVFScheme(mode="warp")

    def test_modes(self):
        assert CPVFScheme().mode == "batched"
        assert CPVFScheme(mode="sequential").mode == "sequential"
        assert CPVFScheme(mode="batched").mode == "batched"
        assert CPVF_MODES == ("sequential", "batched")

    def test_retired_vectorized_mode_raises(self):
        with pytest.raises(ValueError, match="unknown CPVF mode"):
            CPVFScheme(mode="vectorized")

    def test_mode_selectable_via_runspec(self):
        from repro.api import RunSpec, execute_run
        from repro.experiments.common import make_scenario

        record = execute_run(
            RunSpec(
                scenario=make_scenario(SMOKE_SCALE, seed=3),
                scheme="CPVF",
                scheme_params={"mode": "batched"},
            )
        )
        assert record.scheme == "CPVF"
        assert record.coverage > 0.2
        assert record.connected

    def test_mode_selectable_via_cli_flag(self):
        from repro.experiments.runner import run_experiment_records

        records, _ = run_experiment_records(
            "fig3", SMOKE_SCALE, cpvf_mode="batched"
        )
        assert all(
            dict(r.spec.scheme_params)["mode"] == "batched" for r in records
        )


class TestHeterogeneousRanges:
    def test_directed_forces_for_heterogeneous_rc(self):
        """With per-sensor ranges the neighbour relation is directed: a
        sensor only feels neighbours *it* can see.  The batched force
        evaluation must match the scalar model's directed sums, not
        mirror every pair."""
        config = make_config(SMOKE_SCALE, sensor_count=12, seed=9)
        world = make_world(config, SMOKE_SCALE)
        rng = random.Random(3)
        for s in world.sensors:
            s.communication_range = rng.choice([25.0, 60.0, 90.0])
        scheme = CPVFScheme(mode="batched")
        scheme.initialize(world)
        sensors = world.sensors
        n = len(sensors)
        xs = np.fromiter((s.position.x for s in sensors), float, n)
        ys = np.fromiter((s.position.y for s in sensors), float, n)
        connected = np.fromiter((s.is_connected() for s in sensors), bool, n)
        rows, cols, d2 = world.neighbor_pairs(with_d2=True)
        rcs = np.fromiter(
            (s.communication_range for s in sensors), float, n
        ) + 1e-9
        in_range = d2 <= rcs[rows] * rcs[rows]
        ux, uy, moving = scheme._force_direction_arrays(
            world, xs, ys, connected, rows, cols, in_range, symmetric=False
        )
        table = world.neighbor_table()
        forces = scheme._forces
        for s in sensors:
            if not connected[s.sensor_id]:
                continue
            expected = forces.direction(
                s.position,
                [world.sensor(nb).position for nb in table[s.sensor_id]],
                world.field,
            )
            assert ux[s.sensor_id] == pytest.approx(expected.x, abs=1e-12)
            assert uy[s.sensor_id] == pytest.approx(expected.y, abs=1e-12)

    def test_batched_step_runs_with_heterogeneous_rc(self):
        config = make_config(SMOKE_SCALE, sensor_count=16, seed=5)
        world = make_world(config, SMOKE_SCALE)
        rng = random.Random(1)
        for s in world.sensors:
            s.communication_range = rng.choice([40.0, 60.0, 80.0])
        scheme = CPVFScheme(mode="batched")
        scheme.initialize(world)
        for _ in range(10):
            scheme.step(world)
        world.tree.validate()


class TestSchemeReuse:
    def test_reusing_scheme_across_worlds_resets_tree_caches(self):
        """A fresh world restarts its tree version counter, so the
        schedule/link caches of a reused scheme instance must be dropped
        by initialize() — stale entries from the previous world would
        collide with the new counter values."""
        scheme = CPVFScheme(mode="batched")
        coverages = []
        for seed in (3, 19):
            config = make_config(SMOKE_SCALE, seed=seed)
            world = make_world(config, SMOKE_SCALE)
            scheme.initialize(world)
            for _ in range(10):
                scheme.step(world)
            world.tree.validate()
            # Every link the schedule records must exist in this tree.
            schedule = scheme._get_schedule(world)
            for sid in world.tree.members():
                nodes = schedule.link_nodes[
                    schedule.link_offsets[sid]:schedule.link_offsets[sid + 1]
                ]
                expected = {world.tree.parent[sid]} | world.tree.children_of(sid)
                assert set(nodes.tolist()) == expected
            coverages.append(world.coverage())
        assert len(coverages) == 2


class TestLinkIdCache:
    def test_cache_tracks_reparents(self):
        config = make_config(SMOKE_SCALE, seed=5)
        world = make_world(config, SMOKE_SCALE)
        scheme = CPVFScheme()
        scheme.initialize(world)
        members = world.tree.members()
        sid = members[0]
        # Prime the cache.
        before_parent, _ = scheme._link_node_ids(world, sid)
        assert before_parent == world.tree.parent_of(sid)
        new_parent = next(
            (
                m
                for m in members
                if m != sid
                and m != world.tree.parent_of(sid)
                and m not in world.tree.subtree_of(sid)
            ),
            None,
        )
        if new_parent is None:
            pytest.skip("degenerate smoke tree")
        world.reparent_in_tree(sid, new_parent)
        after_parent, _ = scheme._link_node_ids(world, sid)
        assert after_parent == new_parent
        assert sid in scheme._link_node_ids(world, new_parent)[1]
