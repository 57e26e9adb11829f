"""Golden per-period snapshot of two tiny FLOOR runs.

Every period of each run is reduced to one digest over the sensor
positions and states, the floor-registry records (ids, floors, virtual
flags) and the message counters.  The digests were recorded from the
scalar expansion search (one registry query per probe point); any
optimisation of FLOOR must reproduce them bit for bit.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src:tests python tests/core/test_floor_golden.py
"""

from __future__ import annotations

import hashlib
from typing import List

import pytest

from repro.api import NetworkSpec, ScenarioSpec
from repro.core import FloorScheme
from repro.sim import SimulationEngine, sensor_failure


class _SnapshotFloor(FloorScheme):
    """FLOOR that records one state digest after every period."""

    def __init__(self) -> None:
        super().__init__()
        self.digests: List[str] = []

    def step(self, world) -> None:
        super().step(world)
        self.digests.append(_digest(world, self))


def _digest(world, scheme: FloorScheme) -> str:
    h = hashlib.blake2b(digest_size=8)
    for s in world.sensors:
        h.update(
            f"{s.sensor_id}:{s.position.x!r}:{s.position.y!r}:"
            f"{s.state.name}\n".encode()
        )
    registry = scheme._registry
    for floor_index in sorted(registry._records):
        for record in registry.records_on_floor(floor_index):
            h.update(
                f"r{floor_index}:{record.node_id}:{record.virtual}\n".encode()
            )
    for key, count in world.stats.to_counters().items():
        h.update(f"{key}={count}\n".encode())
    return h.hexdigest()


def _tiny_scenario(**overrides) -> ScenarioSpec:
    return ScenarioSpec(
        field_size=300.0,
        layout="two-obstacle",
        sensor_count=24,
        duration=40.0,
        coverage_resolution=15.0,
        seed=1,
        **overrides,
    )


def _run(scenario: ScenarioSpec, network: NetworkSpec = None) -> List[str]:
    world = scenario.build_world(scenario.build_field())
    if network is not None:
        world.network = network.build(scenario.seed)
    scheme = _SnapshotFloor()
    SimulationEngine(
        world, scheme, trace_every=None, events=scenario.events
    ).run()
    return scheme.digests


def two_obstacle_digests() -> List[str]:
    return _run(_tiny_scenario())


def lossy_failure_digests() -> List[str]:
    return _run(
        _tiny_scenario(events=(sensor_failure(at_period=25, fraction=0.25),)),
        NetworkSpec(model="unreliable", loss=0.1),
    )


TWO_OBSTACLE = [
    "026bb4859c81a5ee",
    "1820775bce7fe0c1",
    "84b16be7d6e307d4",
    "2d6987bf611383c1",
    "25a3d28b8d5fd258",
    "926a8f944a422e2c",
    "79c0a96f6b112d7b",
    "37fc4c5ce241ae97",
    "2adbbc0acf7f7e33",
    "64fef7abbb7abc8c",
    "6295b8f6b4d823de",
    "f26bdede8b84b5ae",
    "db68966603586aa9",
    "0a5ccf8862297bac",
    "384ce2085f7e7ca6",
    "d1b871af336fcb7b",
    "1456f8b12c300f2d",
    "972aaeecc78ac9a1",
    "502d775591b39f77",
    "d65f0524fb322954",
    "a09d588de5ca8de4",
    "ffa1c09240f4d73b",
    "902cea2c34575370",
    "493aa1efc2fa2061",
    "18aa5401b88231b3",
    "e176bf4208a4b99c",
    "53f52458e9da507b",
    "f140e0702a0d2c24",
    "77370ca6a3da6f93",
    "d9370236ce02d972",
    "4f7308f76b75fc3e",
    "4fe4d5a57589aae8",
    "460885bb210c5492",
    "b4e60ed98d9740ee",
    "ee06c5a34346e279",
    "787f879368d76551",
    "c00912472a0197b3",
    "22b6ea94dce129cc",
    "c7ced2f8b4e3b7ae",
    "fa614e5b1966c356",
]

LOSSY_FAILURE = [
    "c0dfae2d0320d2bc",
    "32ebea40ae2038d4",
    "10b041f23a19ffbb",
    "64a9866119c5db5d",
    "626997d503cc4d14",
    "8f91af08a84b05d0",
    "cfea68d0392fe358",
    "301332f3203b37fe",
    "554c87c6a4521167",
    "c76ea026cd0b6843",
    "1b1189d852d03c9e",
    "3496c4db3a7c5ca9",
    "2b29b2fa83756c33",
    "4f808569973d5172",
    "9f09fc47841f6a6c",
    "aacd4ff851567be4",
    "2dd7b817c7d2c8aa",
    "994a537a9074b889",
    "e28fa6493e8699b7",
    "c71cc096e3f08c5a",
    "d90926b5779745f5",
    "98ef672512e8d16b",
    "e9f29de562f54b44",
    "a0bbfa23806febef",
    "c6e3abf6e45254bc",
    "00c34148a2a7a9f2",
    "6745ab23c0af116e",
    "98d744b33422ebc1",
    "01f256dfeda10f6a",
    "6fe7e12daa29f618",
    "c7879ac3bdb0f798",
    "e7795c40be2492a7",
    "eeddcdcb7530af19",
    "608beca7848af067",
    "f1dba76895d74a9f",
    "c05d00a28c2099c1",
    "bea8900193c0242f",
    "a8201f9706bc5e58",
    "51b60778e5a2bbdf",
    "e8e41aa442903630",
]


@pytest.mark.parametrize(
    "build, expected",
    [
        (two_obstacle_digests, TWO_OBSTACLE),
        (lossy_failure_digests, LOSSY_FAILURE),
    ],
    ids=["two-obstacle", "lossy-failure"],
)
def test_floor_run_matches_golden_snapshot(build, expected):
    digests = build()
    assert len(digests) == len(expected)
    for period, (got, want) in enumerate(zip(digests, expected)):
        assert got == want, f"state diverged at period {period}"


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for name, build in (
        ("TWO_OBSTACLE", two_obstacle_digests),
        ("LOSSY_FAILURE", lossy_failure_digests),
    ):
        print(f"{name} = [")
        for digest in build():
            print(f'    "{digest}",')
        print("]")
