"""Golden per-period snapshot of two tiny batched-CPVF runs.

Every period of each run is reduced to its coverage, its cumulative
message total, its cumulative LockTree transmission count and one digest
over the sensor positions, states and tree parents.  Both runs exercise
the batched repair pass's parent-change scan: the perfect-network run
re-parents ~26 times, the lossy run (10% message loss plus a mid-run
sensor failure) re-parents ~24 times and aborts ~12 lock handshakes.
Any rewrite of the batched coverage stage that claims to keep its
decisions must reproduce these rows bit for bit.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src:tests python tests/core/test_cpvf_golden.py
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import pytest

from repro.api import NetworkSpec, ScenarioSpec
from repro.core import CPVFScheme
from repro.network import MessageType
from repro.sim import SimulationEngine, sensor_failure

Row = Tuple[str, int, int, str]


class _SnapshotCPVF(CPVFScheme):
    """Batched CPVF that records one snapshot row after every period."""

    def __init__(self) -> None:
        super().__init__(mode="batched")
        self.rows: List[Row] = []

    def step(self, world) -> None:
        super().step(world)
        self.rows.append(_row(world))


def _row(world) -> Row:
    h = hashlib.blake2b(digest_size=8)
    for s in world.sensors:
        h.update(
            f"{s.sensor_id}:{s.position.x!r}:{s.position.y!r}:"
            f"{s.state.name}:{world.tree.parent_of(s.sensor_id)}\n".encode()
        )
    stats = world.stats
    return (
        repr(world.coverage()),
        stats.total(),
        stats.total_for(MessageType.LOCK_TREE),
        h.hexdigest(),
    )


def _tiny_scenario(**overrides) -> ScenarioSpec:
    return ScenarioSpec(
        field_size=300.0,
        layout="obstacle-free",
        sensor_count=24,
        duration=40.0,
        coverage_resolution=15.0,
        seed=1,
        **overrides,
    )


def _run(scenario: ScenarioSpec, network: NetworkSpec = None) -> List[Row]:
    world = scenario.build_world(scenario.build_field())
    if network is not None:
        world.network = network.build(scenario.seed)
    scheme = _SnapshotCPVF()
    SimulationEngine(
        world, scheme, trace_every=None, events=scenario.events
    ).run()
    return scheme.rows


def perfect_rows() -> List[Row]:
    return _run(_tiny_scenario())


def lossy_failure_rows() -> List[Row]:
    return _run(
        _tiny_scenario(events=(sensor_failure(at_period=25, fraction=0.25),)),
        NetworkSpec(model="unreliable", loss=0.1),
    )


PERFECT = [
    ("0.34", 67, 0, "13e51baa2defb7f3"),
    ("0.3475", 120, 5, "f2addda2cee8deb2"),
    ("0.35", 167, 7, "a9126c53216030fd"),
    ("0.355", 216, 10, "8102dfe68322fbd0"),
    ("0.3675", 259, 10, "f7779243aa46b4b9"),
    ("0.375", 318, 18, "9e951afc83a573d9"),
    ("0.38", 387, 31, "a46f0de8bf0d2ff2"),
    ("0.385", 430, 31, "fd0d4da8d95c6e56"),
    ("0.3925", 483, 36, "282aac7389e9df1f"),
    ("0.4025", 526, 36, "3d86afe838517efc"),
    ("0.405", 583, 43, "2029ad13e307dc51"),
    ("0.4125", 632, 46, "a10dafda6fdd1839"),
    ("0.4175", 677, 47, "0e301b4e05c1bfa7"),
    ("0.4225", 720, 47, "1935e1029f665f51"),
    ("0.43", 763, 47, "0297dce5f02d0405"),
    ("0.4375", 823, 55, "9e756b9da4e8bd30"),
    ("0.445", 874, 58, "78f721a0ef069e76"),
    ("0.4475", 920, 58, "214a1bc3aa13d247"),
    ("0.4575", 966, 58, "611482e7d64d29e6"),
    ("0.465", 1030, 67, "ccfa476d2425f63a"),
    ("0.475", 1092, 75, "07d7d798cff32436"),
    ("0.48", 1138, 75, "d858ef9ee700e8d5"),
    ("0.4925", 1184, 75, "7cf51504562f4597"),
    ("0.5", 1236, 78, "8080737cffaff652"),
    ("0.5025", 1318, 96, "04078aac380e17cb"),
    ("0.51", 1364, 96, "9a09a07aa41157e1"),
    ("0.515", 1410, 96, "c13ad568108fc98c"),
    ("0.5225", 1500, 118, "0f59f402e70caf68"),
    ("0.5375", 1616, 153, "635eacf49dcee656"),
    ("0.55", 1748, 196, "d2edab99c49ae9c3"),
    ("0.555", 1794, 196, "bf120d2340c1a802"),
    ("0.56", 1840, 196, "d80a2dba3d33cf58"),
    ("0.56", 1886, 196, "3f47f2f6971976e5"),
    ("0.57", 1932, 196, "263f64cc01a308a2"),
    ("0.5775", 1978, 196, "1367b67904a5b525"),
    ("0.5875", 2024, 196, "92379b4ba538d7aa"),
    ("0.5975", 2070, 196, "43e8f98be90a8a46"),
    ("0.605", 2116, 196, "708b572ca0192042"),
    ("0.61", 2202, 216, "a97226ed3eac3b42"),
    ("0.62", 2248, 216, "025c7a5a5b1f0076"),
]

LOSSY_FAILURE = [
    ("0.34", 68, 0, "13e51baa2defb7f3"),
    ("0.3475", 121, 5, "f2addda2cee8deb2"),
    ("0.35", 168, 7, "a9126c53216030fd"),
    ("0.355", 223, 13, "8102dfe68322fbd0"),
    ("0.3675", 266, 13, "f7779243aa46b4b9"),
    ("0.375", 357, 37, "9e951afc83a573d9"),
    ("0.38", 462, 68, "a46f0de8bf0d2ff2"),
    ("0.385", 505, 68, "fd0d4da8d95c6e56"),
    ("0.3925", 568, 78, "282aac7389e9df1f"),
    ("0.4025", 611, 78, "3d86afe838517efc"),
    ("0.405", 682, 92, "2029ad13e307dc51"),
    ("0.4125", 731, 95, "a10dafda6fdd1839"),
    ("0.4175", 778, 97, "0e301b4e05c1bfa7"),
    ("0.4225", 821, 97, "1935e1029f665f51"),
    ("0.43", 864, 97, "0297dce5f02d0405"),
    ("0.4375", 924, 105, "9e756b9da4e8bd30"),
    ("0.445", 981, 111, "78f721a0ef069e76"),
    ("0.4475", 1027, 111, "214a1bc3aa13d247"),
    ("0.4575", 1073, 111, "611482e7d64d29e6"),
    ("0.465", 1191, 147, "ccfa476d2425f63a"),
    ("0.475", 1269, 163, "07d7d798cff32436"),
    ("0.48", 1315, 163, "d858ef9ee700e8d5"),
    ("0.4925", 1361, 163, "7cf51504562f4597"),
    ("0.5", 1419, 169, "8080737cffaff652"),
    ("0.5025", 1605, 239, "04078aac380e17cb"),
    ("0.47", 1794, 309, "b871de7a0208a880"),
    ("0.4775", 1870, 332, "7389c605ee3b4343"),
    ("0.48", 2086, 424, "e6313047c0d2f0bb"),
    ("0.4875", 2246, 488, "7b3b31b4137bd1e6"),
    ("0.4925", 2430, 564, "e9b5a188e8fcf788"),
    ("0.4925", 2536, 601, "cbf0ebe703bbe3dc"),
    ("0.49", 2716, 675, "65a5aaf8585e54d3"),
    ("0.49", 2880, 741, "579aa53d0ebf1322"),
    ("0.5", 3062, 816, "d5053b3efbc4a1d5"),
    ("0.5075", 3178, 857, "90eae1d07e722ff1"),
    ("0.5225", 3446, 974, "b2a21e1472cb3a42"),
    ("0.5225", 3630, 1049, "853a10028e066c1e"),
    ("0.53", 3860, 1147, "1b688830f6be16ae"),
    ("0.53", 4030, 1215, "d2a2c2d2efcffb4d"),
    ("0.535", 4320, 1343, "551f6081c922986c"),
]


@pytest.mark.parametrize(
    "build, expected",
    [
        (perfect_rows, PERFECT),
        (lossy_failure_rows, LOSSY_FAILURE),
    ],
    ids=["perfect", "lossy-failure"],
)
def test_batched_cpvf_run_matches_golden_snapshot(build, expected):
    rows = build()
    assert len(rows) == len(expected)
    for period, (got, want) in enumerate(zip(rows, expected)):
        assert got == want, f"state diverged at period {period}"


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for name, build in (
        ("PERFECT", perfect_rows),
        ("LOSSY_FAILURE", lossy_failure_rows),
    ):
        print(f"{name} = [")
        for coverage, total, locks, digest in build():
            print(f'    ("{coverage}", {total}, {locks}, "{digest}"),')
        print("]\n")
