"""Randomized parity tests: SpatialIndex vs brute-force squared distances.

The index contract is exact: candidate cells are an over-approximation
and the float64 predicate ``d2 <= r*r`` decides membership, so results
must be *identical* to a brute-force scan — same indices, same order.
"""

import numpy as np
import pytest

from repro.spatial import SpatialIndex


def brute_pairs(points, r):
    pairs = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dx = points[i, 0] - points[j, 0]
            dy = points[i, 1] - points[j, 1]
            if dx * dx + dy * dy <= r * r:
                pairs.append((i, j))
    return pairs


def brute_query(points, q, r):
    hits = []
    for i in range(len(points)):
        dx = points[i, 0] - q[0]
        dy = points[i, 1] - q[1]
        if dx * dx + dy * dy <= r * r:
            hits.append(i)
    return hits


class TestSpatialIndexParity:
    @pytest.mark.parametrize("trial", range(40))
    def test_pairs_within_matches_bruteforce(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(0, 90))
        points = rng.uniform(-50, 150, size=(n, 2))
        r = float(rng.uniform(0.5, 60))
        cell = float(rng.uniform(0.5, 80))
        index = SpatialIndex(cell).build(points)
        ii, jj, d2 = index.pairs_within(r)
        assert list(zip(ii.tolist(), jj.tolist())) == brute_pairs(points, r)
        # Returned squared distances are the exact float64 values.
        for i, j, d in zip(ii.tolist(), jj.tolist(), d2.tolist()):
            dx = points[i, 0] - points[j, 0]
            dy = points[i, 1] - points[j, 1]
            assert d == dx * dx + dy * dy

    @pytest.mark.parametrize("trial", range(40))
    def test_query_radius_matches_bruteforce(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(0, 90))
        points = rng.uniform(0, 100, size=(n, 2))
        r = float(rng.uniform(0.5, 40))
        cell = float(rng.uniform(0.5, 50))
        index = SpatialIndex(cell).build(points)
        q = rng.uniform(-20, 120, size=2)
        assert index.query_radius(q, r).tolist() == brute_query(points, q, r)

    @pytest.mark.parametrize("trial", range(30))
    def test_query_radius_many_matches_bruteforce(self, trial):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(0, 90))
        points = rng.uniform(0, 100, size=(n, 2))
        r = float(rng.uniform(0.5, 40))
        cell = float(rng.uniform(0.5, 50))
        index = SpatialIndex(cell).build(points)
        queries = rng.uniform(-60, 160, size=(int(rng.integers(0, 40)), 2))
        if n:
            # Queries at exactly distance r along an axis from a point.
            edge = points[rng.integers(0, n, size=5)] + np.array([r, 0.0])
            queries = np.vstack([queries, edge])
        q_idx, hits = index.query_radius_many(queries[:, 0], queries[:, 1], r)
        assert np.all(np.diff(q_idx) >= 0)
        for k, q in enumerate(queries):
            got = sorted(hits[q_idx == k].tolist())
            assert got == brute_query(points, q, r)
            assert got == index.query_radius(q, r).tolist()

    def test_query_radius_many_empty_inputs(self):
        index = SpatialIndex(10.0).build(np.array([[3.0, 4.0]]))
        q_idx, hits = index.query_radius_many(np.empty(0), np.empty(0), 5.0)
        assert q_idx.size == hits.size == 0
        empty = SpatialIndex(10.0).build(np.empty((0, 2)))
        q_idx, hits = empty.query_radius_many([0.0], [0.0], 5.0)
        assert q_idx.size == hits.size == 0

    def test_directed_pairs_are_row_major_sorted(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 100, size=(60, 2))
        index = SpatialIndex(12.0).build(points)
        rows, cols, _ = index.neighbor_pairs_directed(15.0)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert pairs == sorted(pairs)
        assert all(i != j for i, j in pairs)

    def test_radius_larger_than_cell(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(0, 100, size=(70, 2))
        index = SpatialIndex(5.0).build(points)  # reach > 1
        ii, jj, _ = index.pairs_within(37.5)
        assert list(zip(ii.tolist(), jj.tolist())) == brute_pairs(points, 37.5)

    def test_empty_and_singleton(self):
        index = SpatialIndex(10.0).build(np.empty((0, 2)))
        assert index.query_radius((0.0, 0.0), 5.0).size == 0
        ii, jj, d2 = index.pairs_within(5.0)
        assert ii.size == jj.size == d2.size == 0
        index = SpatialIndex(10.0).build(np.array([[3.0, 4.0]]))
        assert index.query_radius((0.0, 0.0), 5.0).tolist() == [0]
        assert index.pairs_within(5.0)[0].size == 0

    def test_vec2_query_point_accepted(self):
        from repro.geometry import Vec2

        points = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]])
        index = SpatialIndex(4.0).build(points)
        assert index.query_radius(Vec2(1.0, 0.0), 3.0).tolist() == [0, 1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SpatialIndex(0.0)
        with pytest.raises(ValueError):
            SpatialIndex(10.0).build(np.zeros((3, 3)))
