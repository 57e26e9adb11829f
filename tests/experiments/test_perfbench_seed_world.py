"""The perf harness's seed world runs the same simulation as the library world.

``perfbench`` times its seed baseline on a world whose neighbour and
coverage queries run the verbatim seed algorithms.  Those answers must
equal the library world's, or the seed-vs-fast rows of
``BENCH_perf.json`` would compare different work.
"""

import pytest

from repro.core import CPVFScheme
from repro.experiments.perfbench import _make_perf_world
from repro.sim import World


@pytest.mark.parametrize("seed", [3, 5])
def test_seed_world_matches_library_world(seed):
    fast = _make_perf_world(150, seed, clustered=True, fast=True)
    slow = _make_perf_world(150, seed, clustered=True, fast=False)
    assert type(fast) is World and type(slow) is not World
    for world in (fast, slow):
        scheme = CPVFScheme(mode="sequential")
        scheme.initialize(world)
        for _ in range(3):
            scheme.step(world)
    assert slow.positions() == fast.positions()
    assert slow.neighbor_table() == fast.neighbor_table()
    assert slow.sensors_near_base_station() == fast.sensors_near_base_station()
    assert slow.connected_component_of() == fast.connected_component_of()
    assert slow.network_is_connected() == fast.network_is_connected()
    assert slow.coverage() == fast.coverage()
    # The seed world never touched the library's cache or coverage tracker.
    assert slow._neighbor_cache is None and not slow._coverage_trackers
