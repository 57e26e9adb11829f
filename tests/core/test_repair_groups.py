"""Conflict-grouped repair: parity with the serialized pass.

The batched CPVF repair pass now executes in conflict-free *groups*
(members whose required links share no endpoint are re-laddered and
committed as one numpy pass per round) instead of one scalar walk per
sensor.  The grouping must be invisible: without parent changes the full
trajectory is bit-identical to the serialized pass, and with parent
changes enabled the paper's LockTree/UnLockTree handshake must be
charged per attempt exactly as before — pinned here by stepping grouped
and serialized twins from identical world snapshots and comparing the
per-period lock counts.  The serialized pass is the
:class:`~oracles.SerialRepairCPVF` reference.
"""

import copy

import pytest
from oracles import SerialRepairCPVF

from repro.core import CPVFScheme
from repro.core.lazy import LazyMovementController
from repro.core.oscillation import OscillationAvoidance
from repro.core.virtual_force import VirtualForceModel
from repro.experiments.common import SMOKE_SCALE, make_config, make_world
from repro.mobility import Bug2Planner, Handedness
from repro.network import MessageType
from repro.obs import Telemetry

LOCK_TYPES = (MessageType.LOCK_TREE, MessageType.UNLOCK_TREE)


def _batched(repair_grouping, **kwargs):
    """A batched scheme with grouped (production) or serialized repair."""
    scheme_cls = CPVFScheme if repair_grouping else SerialRepairCPVF
    return scheme_cls(mode="batched", **kwargs)


def _twin(world, config, repair_grouping, allow_parent_change=True):
    """A batched scheme wired to an already-initialized world snapshot."""
    scheme = _batched(repair_grouping, allow_parent_change=allow_parent_change)
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


def _world_fingerprint(world):
    positions = [(s.position.x, s.position.y) for s in world.sensors]
    counts = {mt.name: c for mt, c in world.routing.stats.counts.items()}
    return positions, counts


class TestGroupedParity:
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_bit_identical_without_parent_changes(self, seed):
        """Grouped == serialized, position for position, message for
        message, when re-parenting is disabled (the repair ladder then
        depends only on link positions, which the grouping freezes
        identically)."""
        runs = {}
        for grouping in (True, False):
            config = make_config(SMOKE_SCALE, seed=seed)
            world = make_world(config, SMOKE_SCALE)
            scheme = _batched(grouping, allow_parent_change=False)
            scheme.initialize(world)
            for _ in range(8):
                scheme.step(world)
            runs[grouping] = _world_fingerprint(world)
        assert runs[True][0] == runs[False][0]
        assert runs[True][1] == runs[False][1]

    @pytest.mark.parametrize("seed", [3, 5])
    def test_coverage_parity_with_parent_changes(self, seed):
        """Full dynamics (parent changes on): the grouped repair keeps
        the coverage trajectory within the Fig 3(a) convergence gate."""
        coverages = {}
        for grouping in (True, False):
            config = make_config(SMOKE_SCALE, seed=seed)
            world = make_world(config, SMOKE_SCALE)
            scheme = _batched(grouping)
            scheme.initialize(world)
            for _ in range(12):
                scheme.step(world)
            coverages[grouping] = world.coverage()
        assert coverages[True] == pytest.approx(coverages[False], abs=0.02)


class TestLockHandshakeSnapshot:
    #: Golden per-period LockTree (== UnLockTree) transmission counts,
    #: grouped vs serialized repair, measured from identical world
    #: snapshots (the driver advances with serialized repair).  The two
    #: traces agree except seed 3 / period 4: there the group reordering
    #: legitimately changes one parent-change attempt's outcome — the
    #: same per-attempt charging rule applied to a slightly different
    #: attempt set, exactly the relaxation ``mode="batched"`` itself
    #: makes for parent-change dynamics (see docs/performance.md).
    GOLDEN = {
        3: {True: [0, 6, 0, 5, 25, 9, 3, 0], False: [0, 6, 0, 5, 21, 9, 3, 0]},
        5: {True: [0, 3, 11, 2, 18, 1, 0, 0], False: [0, 3, 11, 2, 18, 1, 0, 0]},
    }

    @pytest.mark.parametrize("seed", [3, 5])
    def test_per_period_lock_counts_snapshot(self, seed):
        """From identical snapshots, the per-period LockTree/UnLockTree
        charge of grouped and serialized repair matches the committed
        golden traces, and every period's handshake is balanced (each
        lock wave has its unlock wave, grouped or not)."""
        config = make_config(SMOKE_SCALE, seed=seed)
        world = make_world(config, SMOKE_SCALE)
        driver = _batched(False)
        driver.initialize(world)
        traces = {True: [], False: []}
        for period in range(8):
            for grouping in (True, False):
                snap = copy.deepcopy(world)
                twin = _twin(snap, config, grouping)
                before = {
                    mt: snap.routing.stats.counts.get(mt, 0)
                    for mt in LOCK_TYPES
                }
                twin.step(snap)
                lock, unlock = (
                    snap.routing.stats.counts.get(mt, 0) - before[mt]
                    for mt in LOCK_TYPES
                )
                # The handshake is always balanced, attempt for attempt.
                assert lock == unlock, f"period {period}"
                traces[grouping].append(lock)
            # A period sees lock traffic under one repair order iff it
            # does under the other (the candidate set is snapshot-
            # determined; only attempt outcomes may differ).
            assert (traces[True][-1] > 0) == (traces[False][-1] > 0)
            driver.step(world)
        assert traces == self.GOLDEN[seed]
        # The scenario must actually exercise the handshake, or the pin
        # above is vacuous.
        assert any(traces[True])


class TestGroupedInvariants:
    def test_connectivity_never_lost(self):
        """The grouped commits preserve the connected component: nobody
        already connected is ever stranded by a batched group move."""
        config = make_config(SMOKE_SCALE, seed=3)
        world = make_world(config, SMOKE_SCALE)
        scheme = CPVFScheme(mode="batched")
        scheme.initialize(world)
        component = world.connected_component_of()
        for _ in range(10):
            scheme.step(world)
            now = world.connected_component_of()
            assert component <= now, "a connected sensor dropped out"
            component = now

    def test_telemetry_spans_and_counters(self):
        """Grouped runs report cpvf.repair_groups / cpvf.repair_rounds;
        serialized runs keep the cpvf.repair span.  The pair span is
        split by maintenance kind with the repaired/rebuilt counters."""
        summaries = {}
        for grouping in (True, False):
            config = make_config(SMOKE_SCALE, seed=3)
            world = make_world(config, SMOKE_SCALE)
            tel = Telemetry()
            world.telemetry = tel
            scheme = _batched(grouping)
            scheme.initialize(world)
            for _ in range(8):
                scheme.step(world)
            summaries[grouping] = tel.summary()
        grouped, serialized = summaries[True], summaries[False]
        assert "cpvf.repair_groups" in grouped.phases
        assert "cpvf.repair" not in grouped.phases
        assert grouped.counters.get("cpvf.repair_rounds", 0) >= 1
        assert "cpvf.repair" in serialized.phases
        assert "cpvf.repair_groups" not in serialized.phases
        for summary in (grouped, serialized):
            # Most periods are answered by the maintained pair store.
            assert summary.counters.get("cpvf.pairs_repaired", 0) >= 1
            assert "cpvf.pairs_incremental" in summary.phases
            repaired = summary.counters.get("cpvf.pairs_repaired", 0)
            rebuilt = summary.counters.get("cpvf.pairs_rebuilt", 0)
            pair_calls = sum(
                summary.phases[name].calls
                for name in ("cpvf.pairs", "cpvf.pairs_incremental")
                if name in summary.phases
            )
            # Exactly one maintenance event is counted per kernel pass.
            assert repaired + rebuilt == pair_calls
