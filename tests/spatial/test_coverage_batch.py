"""Batched disk rasterisation against the per-disk oracle.

``CoverageGrid.rasterize_disks`` rasterises every disk of a call in one
numpy pass; ``tests/oracles.py`` keeps the per-disk scan it replaced.  The
multiplicity grid (not just the covered fraction) must agree exactly for
every kernel consumer: the grid's own mask and multiplicity, the
incremental tracker, ``coverage_report`` and ``World.coverage``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    disk_block,
    disk_coverage_fraction,
    disk_multiplicity,
    grid_axes,
)

from repro.field import Field, two_obstacle_field
from repro.geometry import CoverageGrid, Vec2
from repro.geometry import grid as grid_module
from repro.metrics import coverage_report
from repro.obs import Telemetry
from repro.sim import SimulationConfig, World
from repro.spatial import IncrementalCoverage


def kernel_cells_per_disk(grid, centers, radius):
    """The kernel's hits split by disk, from the per-chunk ``hit`` masks."""
    per_disk = []
    for cells, hit in grid.rasterize_disks(centers, radius):
        counts = hit.sum(axis=(1, 2))
        assert counts.sum() == cells.size
        if len(hit):
            per_disk.extend(np.split(cells, np.cumsum(counts)[:-1]))
    return per_disk


def oracle_cells(grid, cx, cy, radius):
    block = disk_block(grid, cx, cy, radius)
    if block is None:
        return np.empty(0, dtype=int)
    si, sj, hit = block
    ii, jj = np.nonzero(hit)
    return (ii + si.start) * grid.shape[1] + (jj + sj.start)


def assert_kernel_matches(grid, centers, radius):
    per_disk = kernel_cells_per_disk(grid, centers, radius)
    assert len(per_disk) == len(centers)
    for cells, (cx, cy) in zip(per_disk, centers):
        assert sorted(cells) == sorted(oracle_cells(grid, cx, cy, radius))
    multiplicity = np.bincount(
        np.concatenate(per_disk or [np.empty(0, dtype=int)]),
        minlength=grid.num_points,
    )
    assert np.array_equal(
        multiplicity, disk_multiplicity(grid, centers, radius)
    )


def edge_centers(grid, rng, n):
    """Centres off the field, on its edge and exactly on grid lines."""
    xs, ys = grid_axes(grid)
    centers = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:  # off the field
            centers.append((rng.uniform(-80, grid.xmax + 80), grid.ymax + 30))
        elif kind == 1:  # on the field's edge
            centers.append((grid.xmin, rng.uniform(grid.ymin, grid.ymax)))
        elif kind == 2:  # exactly on a sample point
            centers.append((float(rng.choice(xs)), float(rng.choice(ys))))
        else:
            centers.append(
                (rng.uniform(grid.xmin, grid.xmax), rng.uniform(grid.ymin, grid.ymax))
            )
    return centers


class TestKernelParity:
    @pytest.mark.parametrize("trial", range(25))
    def test_random_layouts(self, trial):
        rng = random.Random(trial)
        res = rng.uniform(1.0, 20.0)
        grid = CoverageGrid(
            0.0, 0.0, rng.uniform(20, 300), rng.uniform(20, 300), res
        )
        centers = edge_centers(grid, rng, rng.randint(0, 60))
        for radius in (0.0, res / 3, rng.uniform(0.0, 80.0), 1000.0):
            assert_kernel_matches(grid, centers, radius)

    def test_disk_on_a_grid_line_hits_its_rim(self):
        grid = CoverageGrid(0.0, 0.0, 100.0, 100.0, 10.0)
        # Centre on a sample point, radius an exact multiple of the
        # spacing: the rim points are on the boundary of the disk.
        assert_kernel_matches(grid, [(45.0, 45.0), (5.0, 95.0)], 20.0)

    def test_padding_is_masked_by_the_disks_own_bounds(self):
        # cx + r rounds just below the first sample x (0.05), so the left
        # disk's bounds are empty, yet (0.05 - cx)**2 <= r*r holds.  The
        # right disk pads the left one's block over that column.
        grid = CoverageGrid(0.0, 0.0, 1.0, 1.0, 0.1)
        cx, r = -0.05000000000000001, 0.1
        xs, _ = grid_axes(grid)
        assert (xs[0] - cx) * (xs[0] - cx) <= r * r
        assert_kernel_matches(grid, [(cx, 0.55), (0.55, 0.55)], r)
        assert_kernel_matches(grid, [(0.55, cx), (0.55, 0.55)], r)

    def test_radius_zero_hits_only_coincident_points(self):
        grid = CoverageGrid(0.0, 0.0, 100.0, 100.0, 10.0)
        per_disk = kernel_cells_per_disk(grid, [(45.0, 45.0), (46.0, 45.0)], 0.0)
        assert [cells.tolist() for cells in per_disk] == [[4 * 10 + 4], []]

    def test_no_disks(self):
        grid = CoverageGrid(0.0, 0.0, 100.0, 100.0, 10.0)
        assert kernel_cells_per_disk(grid, [], 30.0) == []

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_chunked_passes_agree(self, monkeypatch, chunk):
        monkeypatch.setattr(grid_module, "DISK_CHUNK", chunk)
        rng = random.Random(chunk)
        grid = CoverageGrid(0.0, 0.0, 200.0, 150.0, 7.0)
        centers = edge_centers(grid, rng, 20)
        for radius in (0.0, 3.0, 25.0, 400.0):
            assert_kernel_matches(grid, centers, radius)

    def test_cell_budget_splits_large_disks(self, monkeypatch):
        monkeypatch.setattr(grid_module, "CHUNK_CELLS", 50)
        grid = CoverageGrid(0.0, 0.0, 100.0, 100.0, 5.0)
        rng = random.Random(5)
        assert_kernel_matches(grid, edge_centers(grid, rng, 12), 30.0)

    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.lists(
            st.tuples(
                st.floats(-60.0, 160.0, allow_nan=False),
                st.floats(-60.0, 160.0, allow_nan=False),
            ),
            max_size=25,
        ),
        radius=st.one_of(
            st.just(0.0), st.floats(0.0, 150.0, allow_nan=False)
        ),
        res=st.sampled_from([1.0, 2.5, 7.0, 10.0, 33.0]),
    )
    def test_hypothesis(self, centers, radius, res):
        grid = CoverageGrid(0.0, 0.0, 100.0, 80.0, res)
        assert_kernel_matches(grid, centers, radius)


class TestConsumers:
    @pytest.mark.parametrize("trial", range(6))
    def test_mask_report_and_fraction_on_obstacle_fields(self, trial):
        rng = random.Random(100 + trial)
        field = two_obstacle_field(300.0)
        grid, obstacle_mask = field.grid_and_obstacle_mask(9.0)
        positions = [
            Vec2(rng.uniform(-20, 320), rng.uniform(-20, 320)) for _ in range(30)
        ]
        centers = [(p.x, p.y) for p in positions]
        radius = rng.uniform(5.0, 60.0)
        expected = disk_multiplicity(grid, centers, radius)
        assert np.array_equal(
            grid.coverage_mask(centers, radius), expected > 0
        )
        assert np.array_equal(grid.multiplicity(centers, radius), expected)
        assert field.coverage_fraction(positions, radius, 9.0) == (
            disk_coverage_fraction(field, positions, radius, 9.0)
        )
        free = ~obstacle_mask
        report = coverage_report(field, positions, radius, 9.0)
        covered = (expected >= 1) & free
        assert report.covered_fraction == covered.sum() / free.sum()
        assert report.doubly_covered_fraction == (
            ((expected >= 2) & free).sum() / free.sum()
        )
        assert report.mean_multiplicity == float(expected[covered].mean())


class TestTrackerSequences:
    def check(self, tracker, field, pts, radius, res):
        grid, obstacle_mask = field.grid_and_obstacle_mask(res)
        expected = disk_multiplicity(grid, [tuple(p) for p in pts], radius)
        assert np.array_equal(tracker.multiplicity_grid().ravel(), expected)
        assert tracker.covered_fraction() == disk_coverage_fraction(
            field, [Vec2(x, y) for x, y in pts], radius, res
        )

    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", range(4))
    def test_moves_repeats_kills_and_joins(self, trial, with_obstacles):
        rng = np.random.default_rng(trial)
        field = two_obstacle_field(300.0) if with_obstacles else Field(300.0, 300.0)
        radius, res = float(rng.uniform(10.0, 50.0)), 12.0
        tracker = IncrementalCoverage(field, radius, res)
        pts = rng.uniform(-20, 320, size=(int(rng.integers(5, 40)), 2))
        assert tracker.update(pts) == len(pts)
        self.check(tracker, field, pts, radius, res)
        for _ in range(12):
            op = rng.integers(5)
            if op == 0:  # no sensor moved
                assert tracker.update(pts.copy()) == 0
            elif op == 1 and len(pts) > 1:  # a kill shrinks the population
                pts = np.delete(pts, rng.integers(len(pts)), axis=0)
                tracker.update(pts)
            elif op == 2:  # a join grows it
                pts = np.vstack([pts, rng.uniform(0, 300, size=(1, 2))])
                tracker.update(pts)
            else:  # a few movers, sometimes onto another's position
                k = int(rng.integers(1, max(2, len(pts) // 2)))
                idx = rng.choice(len(pts), size=k, replace=False)
                pts[idx] = rng.uniform(-20, 320, size=(k, 2))
                if k > 1:
                    pts[idx[0]] = pts[idx[1]]
                tracker.update(pts)
            self.check(tracker, field, pts, radius, res)

    def test_no_move_rasterises_nothing(self, monkeypatch):
        field = Field(200.0, 200.0)
        tracker = IncrementalCoverage(field, 30.0, 10.0)
        pts = np.array([[50.0, 50.0], [120.0, 80.0]])
        tracker.update(pts)
        before = tracker.multiplicity_grid()

        def fail(*args):
            raise AssertionError("rasterised without a mover")

        grid, _ = field.grid_and_obstacle_mask(10.0)
        monkeypatch.setattr(grid, "rasterize_disks", fail)
        monkeypatch.setattr(grid, "multiplicity", fail)
        assert tracker.update(pts.copy()) == 0
        assert np.array_equal(tracker.multiplicity_grid(), before)

    def test_disk_count_includes_removals(self):
        field = Field(200.0, 200.0)
        tracker = IncrementalCoverage(field, 30.0, 10.0)
        pts = np.random.default_rng(1).uniform(0, 200, size=(10, 2))
        tracker.update(pts)
        pts[3] += 5.0
        assert tracker.update(pts) == 2  # one removal, one addition
        pts[:] += 1.0
        assert tracker.update(pts) == 10  # most moved: one batched rebuild


def make_world(field, n=30, seed=3):
    config = SimulationConfig(
        sensor_count=n,
        communication_range=60.0,
        sensing_range=35.0,
        duration=10.0,
        coverage_resolution=10.0,
        seed=seed,
        clustered_start=False,
    )
    return World.create(config, field)


def oracle_world_coverage(world):
    return disk_coverage_fraction(
        world.field,
        [s.position for s in world.alive_sensors()],
        world.config.sensing_range,
        world.config.coverage_resolution,
    )


class TestWorldCoverage:
    def test_matches_oracle_through_moves_and_churn(self):
        world = make_world(two_obstacle_field(250.0), n=25, seed=8)
        rng = random.Random(8)
        for step in range(8):
            assert world.coverage() == oracle_world_coverage(world)
            for sensor in rng.sample(world.alive_sensors(), 4):
                sensor.position = world.field.nearest_free(
                    Vec2(rng.uniform(0, 250), rng.uniform(0, 250))
                )
            if step == 3:
                world.remove_sensor(world.alive_sensors()[0].sensor_id)
        assert world.coverage() == oracle_world_coverage(world)

    def test_counters_only_with_telemetry(self):
        world = make_world(Field(250.0, 250.0), n=12)
        world.coverage()
        tel = Telemetry()
        world.telemetry = tel
        world.coverage()  # nothing moved
        world.sensors[0].position = Vec2(10.0, 10.0)
        world.coverage()  # one mover: its old and new disks
        counters = tel.summary().counters
        assert counters["coverage.updates"] == 2
        assert counters["coverage.disks"] == 2
