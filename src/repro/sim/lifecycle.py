"""Fault-injection lifecycle events and their mid-run execution.

A scenario may carry an *event timeline*: seed-deterministic world
mutations the engine applies between periods — sensor death (battery
exhaustion), mid-run sensor injection, obstacles appearing (a door
closing in a ``rooms`` layout) or disappearing again.  The
:class:`FaultInjector` executes the timeline against a live
:class:`~repro.sim.world.World`, notifies the running scheme through its
``on_world_changed`` hook, and opens one
:class:`~repro.metrics.recovery.RecoveryTracker` per event so every run
reports time-to-recover, extra moving distance and the per-event message
burst.

Determinism: all randomness (victim selection, injection positions) comes
from a private stream derived from ``(scenario seed, event index, kind)``
with the same hash construction the sweep layer uses for repetition
seeds, so a timeline replays identically for a given spec — including
under process-parallel sweeps.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..field.obstacles import Obstacle
from ..geometry import Vec2
from ..metrics.recovery import EventOutcome, RecoveryTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .world import World

__all__ = [
    "EVENT_KINDS",
    "LifecycleEvent",
    "WorldChange",
    "FaultInjector",
    "normalize_events",
    "sensor_failure",
    "sensor_join",
    "obstacle_appear",
    "obstacle_clear",
    "event_rng",
    "select_failure_victims",
    "draw_join_positions",
    "build_event_obstacle",
]

#: Recognised event kinds.
EVENT_KINDS = ("failure", "join", "obstacle", "clear-obstacle")

Params = Tuple[Tuple[str, Any], ...]


def _freeze_params(params: Union[Mapping[str, Any], Sequence, None]) -> Params:
    """Sorted frozen ``(key, value)`` tuple (mirrors the api layer's helper,
    which cannot be imported here — the api package imports ``sim``)."""
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(tuple(pair) for pair in params)
    return tuple(sorted((str(k), v) for k, v in items))


def _derive_rng(base_seed: int, *keys) -> random.Random:
    """Private RNG stream for one event (blake2b over the key tuple)."""
    payload = repr((int(base_seed),) + tuple(keys)).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big") >> 33)


@dataclass(frozen=True)
class LifecycleEvent:
    """One scheduled world mutation.

    ``params`` is a frozen sorted ``(key, value)`` tuple (JSON-friendly,
    hashable) — use the module-level constructors for the supported
    grammar rather than spelling params by hand.
    """

    #: Period index (0-based) at whose *start* the event fires.
    at_period: int
    #: One of :data:`EVENT_KINDS`.
    kind: str
    params: Params = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown lifecycle event kind: {self.kind!r}")
        if self.at_period < 0:
            raise ValueError("event period cannot be negative")
        object.__setattr__(self, "params", _freeze_params(self.params))

    def param(self, key: str, default: Any = None) -> Any:
        """Value of one event parameter."""
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_period": self.at_period,
            "kind": self.kind,
            "params": dict(self.params),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "LifecycleEvent":
        return LifecycleEvent(
            at_period=int(data["at_period"]),
            kind=str(data["kind"]),
            params=_freeze_params(data.get("params")),
        )


def normalize_events(events) -> Tuple[LifecycleEvent, ...]:
    """Coerce a sequence of events / dicts into a tuple of events."""
    out: List[LifecycleEvent] = []
    for item in events or ():
        if isinstance(item, LifecycleEvent):
            out.append(item)
        elif isinstance(item, Mapping):
            out.append(LifecycleEvent.from_dict(item))
        else:
            raise TypeError(f"not a lifecycle event: {item!r}")
    return tuple(out)


# ----------------------------------------------------------------------
# Event grammar constructors
# ----------------------------------------------------------------------
def sensor_failure(
    at_period: int,
    count: Optional[int] = None,
    fraction: Optional[float] = None,
    selection: str = "random",
) -> LifecycleEvent:
    """Kill ``count`` sensors (or a ``fraction`` of the live population).

    ``selection="interior"`` prefers tree-interior victims (nodes with
    children), the worst case for connectivity repair.
    """
    if (count is None) == (fraction is None):
        raise ValueError("specify exactly one of count / fraction")
    if selection not in ("random", "interior"):
        raise ValueError(f"unknown selection policy: {selection!r}")
    params: Dict[str, Any] = {"selection": selection}
    if count is not None:
        params["count"] = int(count)
    else:
        params["fraction"] = float(fraction)
    return LifecycleEvent(at_period=at_period, kind="failure", params=params)


def sensor_join(
    at_period: int,
    count: int,
    x: Optional[float] = None,
    y: Optional[float] = None,
    radius: Optional[float] = None,
) -> LifecycleEvent:
    """Inject ``count`` fresh sensors, uniform over free space by default.

    With ``x``/``y`` (and optionally ``radius``) the arrivals are drawn
    uniformly from a disk around that staging point instead.
    """
    params: Dict[str, Any] = {"count": int(count)}
    if (x is None) != (y is None):
        raise ValueError("specify both x and y (or neither)")
    if x is not None:
        params["x"] = float(x)
        params["y"] = float(y)
        params["radius"] = float(radius if radius is not None else 0.0)
    elif radius is not None:
        raise ValueError("radius requires a staging point")
    return LifecycleEvent(at_period=at_period, kind="join", params=params)


def obstacle_appear(
    at_period: int, xmin: float, ymin: float, xmax: float, ymax: float
) -> LifecycleEvent:
    """Materialise an axis-aligned rectangular obstacle (a door closing)."""
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("degenerate obstacle rectangle")
    return LifecycleEvent(
        at_period=at_period,
        kind="obstacle",
        params={
            "xmin": float(xmin),
            "ymin": float(ymin),
            "xmax": float(xmax),
            "ymax": float(ymax),
        },
    )


def obstacle_clear(at_period: int, index: int) -> LifecycleEvent:
    """Remove the obstacle at ``index`` in ``field.obstacles`` (door opens).

    Obstacles appended by earlier ``obstacle`` events sit after the
    layout's own obstacles, in event order.
    """
    return LifecycleEvent(
        at_period=at_period, kind="clear-obstacle", params={"index": int(index)}
    )


# ----------------------------------------------------------------------
# Shared event mechanics (used by the engine injector AND the round-based
# VD baseline path, which has no World)
# ----------------------------------------------------------------------
def event_rng(base_seed: int, event_index: int, kind: str) -> random.Random:
    """The deterministic RNG stream of one event."""
    return _derive_rng(base_seed, event_index, kind)


def select_failure_victims(
    rng: random.Random,
    event: LifecycleEvent,
    candidates: Sequence[int],
    interior_candidates: Optional[Sequence[int]] = None,
) -> List[int]:
    """Pick the victims of a ``failure`` event, sorted ascending.

    ``candidates`` must be in deterministic order.  The ``interior``
    policy draws from ``interior_candidates`` first and tops up from the
    rest; with no interior pool (the tree-less VD baselines) it degrades
    to random selection.
    """
    candidates = list(candidates)
    count = event.param("count")
    if count is None:
        count = int(round(event.param("fraction", 0.0) * len(candidates)))
    count = max(0, min(int(count), len(candidates)))
    if (
        event.param("selection", "random") == "interior"
        and interior_candidates
    ):
        interior = list(interior_candidates)
        victims = rng.sample(interior, min(count, len(interior)))
        if len(victims) < count:
            taken = set(victims)
            rest = [c for c in candidates if c not in taken]
            victims += rng.sample(rest, count - len(victims))
    else:
        victims = rng.sample(candidates, count)
    return sorted(victims)


def draw_join_positions(field, event: LifecycleEvent, rng: random.Random) -> List[Vec2]:
    """Draw the arrival positions of a ``join`` event (free space only)."""
    count = max(0, int(event.param("count", 0)))
    x = event.param("x")
    positions: List[Vec2] = []
    for _ in range(count):
        if x is not None:
            cx = float(x)
            cy = float(event.param("y"))
            radius = float(event.param("radius", 0.0))
            pos = None
            for _attempt in range(50):
                # Uniform over the staging disk.
                r = radius * (rng.random() ** 0.5)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                candidate = field.clamp(
                    Vec2(cx + r * math.cos(angle), cy + r * math.sin(angle))
                )
                if field.is_free(candidate):
                    pos = candidate
                    break
            if pos is None:
                pos = field.clamp(Vec2(cx, cy))
        else:
            pos = None
            for _attempt in range(50):
                candidate = Vec2(
                    rng.uniform(0.0, field.width),
                    rng.uniform(0.0, field.height),
                )
                if field.is_free(candidate):
                    pos = candidate
                    break
            if pos is None:
                pos = Vec2(field.width / 2.0, field.height / 2.0)
        positions.append(pos)
    return positions


def build_event_obstacle(event: LifecycleEvent) -> Obstacle:
    """The rectangle an ``obstacle`` event materialises."""
    return Obstacle.rectangle(
        event.param("xmin"),
        event.param("ymin"),
        event.param("xmax"),
        event.param("ymax"),
        name=f"event-obstacle-{event.at_period}",
    )


# ----------------------------------------------------------------------
# Applying events to a live world
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorldChange:
    """What a fired event did to the world (passed to the scheme hook)."""

    kind: str
    failed_ids: Tuple[int, ...] = ()
    added_ids: Tuple[int, ...] = ()
    #: Tree members that fell out of the tree because their orphaned
    #: subtree could not be re-attached (now DISCONNECTED).
    disconnected_ids: Tuple[int, ...] = ()
    obstacles_changed: bool = False


class FaultInjector:
    """Executes a scenario's event timeline against a running world."""

    def __init__(
        self,
        world: "World",
        scheme,
        events: Sequence[LifecycleEvent],
        recovery_target: float = 0.95,
        burst_window: int = 25,
    ):
        self._world = world
        self._scheme = scheme
        self._recovery_target = float(recovery_target)
        self._burst_window = max(1, int(burst_window))
        self._by_period: Dict[int, List[Tuple[int, LifecycleEvent]]] = {}
        self._events = normalize_events(events)
        for index, event in enumerate(self._events):
            self._by_period.setdefault(event.at_period, []).append((index, event))
        self._max_period = max(
            (e.at_period for e in self._events), default=-1
        )
        #: Per-period transmission totals for the trailing baseline window.
        self._recent_messages: deque = deque(maxlen=self._burst_window)
        self._last_snapshot = world.stats.snapshot()
        self._active: List[RecoveryTracker] = []
        self._outcomes: List[EventOutcome] = []

    # ------------------------------------------------------------------
    def has_pending(self, period: int) -> bool:
        """Whether any event is still scheduled after ``period``."""
        return self._max_period > period

    def fire(self, period: int) -> int:
        """Apply every event scheduled for ``period``; returns how many."""
        fired = self._by_period.get(period, ())
        for index, event in fired:
            self._apply(index, event)
        return len(fired)

    def observe(self, period: int) -> None:
        """Per-period bookkeeping (call after the scheme stepped)."""
        world = self._world
        current = world.stats.snapshot()
        self._recent_messages.append(current.diff(self._last_snapshot).total())
        self._last_snapshot = current
        if not self._active:
            return
        coverage = world.coverage()
        distance = world.total_moving_distance()
        messages = world.stats.total()
        still_active: List[RecoveryTracker] = []
        for tracker in self._active:
            tracker.observe(period, coverage, distance, messages)
            if tracker.settled:
                self._outcomes.append(tracker.outcome())
            else:
                still_active.append(tracker)
        self._active = still_active

    def outcomes(self) -> List[EventOutcome]:
        """Finalise remaining trackers and return outcomes in event order."""
        for tracker in self._active:
            self._outcomes.append(tracker.outcome())
        self._active = []
        return sorted(self._outcomes, key=lambda o: o.at_period)

    # ------------------------------------------------------------------
    def _apply(self, index: int, event: LifecycleEvent) -> None:
        world = self._world
        if world.telemetry.enabled:
            world.telemetry.count("lifecycle.events_fired", 1)
            world.telemetry.count(f"lifecycle.events.{event.kind}", 1)
        pre_coverage = world.coverage()
        pre_distance = world.total_moving_distance()
        pre_messages = world.stats.total()
        baseline = sum(self._recent_messages)

        if event.kind == "failure":
            change = self._apply_failure(index, event)
        elif event.kind == "join":
            change = self._apply_join(index, event)
        elif event.kind == "obstacle":
            change = self._apply_obstacle(event)
        else:
            change = self._apply_clear_obstacle(event)
        hook = getattr(self._scheme, "on_world_changed", None)
        if hook is not None:
            hook(world, change)

        self._active.append(
            RecoveryTracker(
                at_period=event.at_period,
                kind=event.kind,
                pre_coverage=pre_coverage,
                post_coverage=world.coverage(),
                pre_distance=pre_distance,
                pre_messages=pre_messages,
                baseline_window_messages=baseline,
                recovery_target=self._recovery_target,
                burst_window=self._burst_window,
            )
        )

    def _apply_failure(self, index: int, event: LifecycleEvent) -> WorldChange:
        world = self._world
        rng = event_rng(world.config.seed, index, "failure")
        alive_ids = sorted(
            s.sensor_id for s in world.sensors if s.is_alive()
        )
        victims = select_failure_victims(
            rng,
            event,
            alive_ids,
            interior_candidates=[
                sid for sid in alive_ids if world.tree.children_of(sid)
            ],
        )
        disconnected: List[int] = []
        for sid in victims:
            disconnected.extend(world.remove_sensor(sid))
        alive_disconnected = tuple(
            sorted(
                sid
                for sid in set(disconnected)
                if world.sensor(sid).is_alive()
            )
        )
        if world.telemetry.enabled:
            world.telemetry.count("lifecycle.sensors_failed", len(victims))
            world.telemetry.count(
                "lifecycle.sensors_disconnected", len(alive_disconnected)
            )
        return WorldChange(
            kind="failure",
            failed_ids=tuple(victims),
            disconnected_ids=alive_disconnected,
        )

    def _apply_join(self, index: int, event: LifecycleEvent) -> WorldChange:
        world = self._world
        rng = event_rng(world.config.seed, index, "join")
        added = [
            world.add_sensor(pos).sensor_id
            for pos in draw_join_positions(world.field, event, rng)
        ]
        world.telemetry.count("lifecycle.sensors_joined", len(added))
        return WorldChange(kind="join", added_ids=tuple(added))

    def _apply_obstacle(self, event: LifecycleEvent) -> WorldChange:
        world = self._world
        world.field.add_obstacle(build_event_obstacle(event))
        self._displace_swallowed_sensors()
        return WorldChange(kind="obstacle", obstacles_changed=True)

    def _apply_clear_obstacle(self, event: LifecycleEvent) -> WorldChange:
        world = self._world
        index = int(event.param("index", -1))
        if not 0 <= index < len(world.field.obstacles):
            raise ValueError(
                f"clear-obstacle index {index} out of range "
                f"(field has {len(world.field.obstacles)} obstacles)"
            )
        world.field.remove_obstacle(index)
        return WorldChange(kind="clear-obstacle", obstacles_changed=True)

    def _displace_swallowed_sensors(self) -> None:
        """Push live sensors out of a newly materialised obstacle.

        The escape walk is charged to the odometer — it is real movement
        the event forced.
        """
        world = self._world
        field_ = world.field
        for sensor in world.sensors:
            if not sensor.is_alive():
                continue
            pos = sensor.position
            if field_.is_free(pos):
                continue
            target = field_.nearest_free(pos)
            sensor.motion.stop()
            sensor.motion.commit_move(
                target.x, target.y, pos.distance_to(target)
            )
