"""The traced run: layer spans recorded from outside the program.

:func:`layer_hooks` lists, for every layer, the public functions to time
and *where their callers look them up*.  Methods are looked up on their
class at call time, so the class attribute is replaced; a function that a
module imported by name (``cpvf`` binds ``max_valid_step`` at import) is
replaced on the importing module.  :class:`Tracer` installs a wrapper for
each hook, records one span per call — name, start, end, parent span and
run id — and restores every original when the traced block ends.

Self time is a span's duration minus the part of it that child spans
cover.  The root span (``run``, one ``execute_run``) keeps as self time
what no layer span claims; ``sim.unclaimed_frac`` is that share.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MESSAGE_TYPES",
    "ROOT_SPAN",
    "SPAN_NAMES",
    "Hook",
    "Span",
    "Tracer",
    "layer_hooks",
    "per_layer_names",
    "per_layer_metrics",
    "self_times",
]

#: Name of the span around one whole ``execute_run``.
ROOT_SPAN = "run"

#: Layer spans, in report order.  Each yields ``<name>.calls`` and
#: ``<name>.self_ms``.
SPAN_NAMES: Tuple[str, ...] = (
    "api.build_field",
    "api.build_world",
    "core.initialize",
    "sim.coverage",
    "sim.connectivity",
    "sim.lifecycle",
    "core.cpvf.step",
    "core.ladder",
    "core.floor.step",
    "core.expansion",
    "core.registry",
    "core.invitations",
    "spatial.query_radius",
    "spatial.pairs.build",
    "spatial.pairs.serve",
    "spatial.pairs.repair",
    "spatial.neighbor_table",
    "spatial.coverage_update",
    "network.exchange",
    "network.route_hops",
    "mobility.bug2",
    "field.free_travel",
    "field.segment_blocked",
)

#: Per-layer metrics that are not span times: ``(name, unit)``.
_EXTRA_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.unclaimed_frac", "ratio"),
    ("core.cpvf.parent_changes", "count"),
    ("core.cpvf.lock_aborts", "count"),
    ("core.registry.covered_ratio", "ratio"),
    ("core.invitations.accept_ratio", "ratio"),
    ("spatial.pairs.candidates", "count"),
    ("spatial.pairs.bytes", "B-computed"),
    ("network.dropped", "count"),
    ("network.retries", "count"),
    ("network.timeouts", "count"),
    ("network.messages_per_node", "count"),
    ("mobility.bug2.path_ratio", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Message types reported as ``network.messages.<type>`` counts (the
#: values of ``repro.network.MessageType``).
MESSAGE_TYPES: Tuple[str, ...] = (
    "connectivity_flood",
    "path_parent_inquiry",
    "neighbor_state",
    "lock_tree",
    "unlock_tree",
    "arrival_report",
    "ancestor_response",
    "coverage_query",
    "coverage_response",
    "invitation",
    "accept_invitation",
    "acknowledge",
    "location_update",
    "tree_repair",
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names: List[Tuple[str, str]] = []
    for span in SPAN_NAMES:
        names.append((f"{span}.calls", "count"))
        names.append((f"{span}.self_ms", "ms"))
    names.extend(_EXTRA_METRICS)
    names.extend((f"network.messages.{t}", "count") for t in MESSAGE_TYPES)
    return names


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Span:
    """One timed call."""

    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus its children's coverage.

    Child intervals are clipped to the parent and merged before
    subtracting, so overlapping children are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            start, end = max(s.start, parent.start), min(s.end, parent.end)
            if end > start:
                children[s.parent].append((start, end))
    return {
        s.span_id: (s.end - s.start) - _union_length(children[s.span_id])
        for s in spans
    }


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
Observer = Callable[[Tuple, Any, Dict[str, float]], None]


@dataclass(frozen=True)
class Hook:
    """One function to wrap: ``owner.attr`` reported as span ``span``."""

    span: str
    owner: Any
    attr: str
    #: Optional ``(args, result, counts)`` callback counting what the call
    #: did (e.g. how many registry checks answered "covered").
    observe: Optional[Observer] = None


def _count_covered(args, result, counts) -> None:
    counts["registry.covered"] += 1 if result[0] else 0


def _count_bug2(args, result, counts) -> None:
    start, target = args[1], args[2]
    counts["bug2.planned_m"] += result.length()
    counts["bug2.straight_m"] += start.distance_to(target)


def _count_served(args, result, counts) -> None:
    counts["pairs.candidates"] += int(result[0].size)


def _count_store_bytes(args, result, counts) -> None:
    size = sum(
        getattr(result, slot).nbytes
        for slot in ("ax", "ay", "rows", "cols", "counts")
        if hasattr(getattr(result, slot, None), "nbytes")
    )
    counts["pairs.bytes"] = max(counts["pairs.bytes"], size)


def layer_hooks() -> List[Hook]:
    """Every wrapped function, each where its callers look it up."""
    from repro.api import ScenarioSpec
    from repro.core import (
        CPVFScheme,
        ExpansionPlanner,
        FloorRegistry,
        FloorScheme,
        InvitationProtocol,
    )
    from repro.core import cpvf as cpvf_module
    from repro.field import Field
    from repro.mobility import Bug2Planner
    from repro.network import RoutingCostModel
    from repro.network.conditions import NetworkModel, UnreliableNetwork
    from repro.network.walks import TreeWalkIndex
    from repro.sim import World
    from repro.sim.lifecycle import FaultInjector
    from repro.spatial import (
        IncrementalCoverage,
        NeighborCache,
        PairStore,
        SpatialIndex,
    )

    return [
        Hook("api.build_field", ScenarioSpec, "build_field"),
        Hook("api.build_world", ScenarioSpec, "build_world"),
        Hook("core.initialize", CPVFScheme, "initialize"),
        Hook("core.initialize", FloorScheme, "initialize"),
        Hook("sim.coverage", World, "coverage"),
        Hook("sim.connectivity", World, "network_is_connected"),
        Hook("sim.lifecycle", FaultInjector, "fire"),
        Hook("sim.lifecycle", FaultInjector, "observe"),
        Hook("core.cpvf.step", CPVFScheme, "step"),
        # cpvf imports the ladder functions by name: patch its module.
        Hook("core.ladder", cpvf_module, "max_valid_step"),
        Hook("core.ladder", cpvf_module, "max_valid_step_points"),
        Hook("core.ladder", cpvf_module, "batched_ladder_steps"),
        Hook("core.floor.step", FloorScheme, "step"),
        Hook("core.expansion", ExpansionPlanner, "expansion_points"),
        Hook(
            "core.registry", FloorRegistry, "is_point_covered",
            _count_covered,
        ),
        Hook("core.invitations", InvitationProtocol, "run_round"),
        Hook("spatial.query_radius", SpatialIndex, "query_radius"),
        Hook("spatial.pairs.build", PairStore, "build", _count_store_bytes),
        Hook("spatial.pairs.serve", PairStore, "serve", _count_served),
        Hook("spatial.pairs.repair", PairStore, "repair"),
        Hook("spatial.neighbor_table", NeighborCache, "neighbor_table"),
        Hook("spatial.coverage_update", IncrementalCoverage, "update"),
        Hook("network.exchange", NetworkModel, "exchange"),
        Hook("network.exchange", UnreliableNetwork, "exchange"),
        Hook("network.route_hops", TreeWalkIndex, "route_hops"),
        Hook("network.route_hops", RoutingCostModel, "tree_route_hops"),
        Hook("mobility.bug2", Bug2Planner, "plan", _count_bug2),
        Hook("field.free_travel", Field, "max_free_travel"),
        Hook("field.free_travel", Field, "max_free_travel_batch"),
        Hook("field.segment_blocked", Field, "segment_blocked"),
    ]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
@dataclass
class Tracer:
    """Records spans and counts in memory for one traced run."""

    run_id: str
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: List[int] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; return its result."""
        span = Span(
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        call, name, observe = self.call, hook.span, hook.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result, self.counts)
            return result

        return traced

    @contextmanager
    def installed(self, hooks: Sequence[Hook]) -> Iterator["Tracer"]:
        """Install a wrapper for every hook; restore the originals on exit."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                # Only attributes the owner defines itself: restoring an
                # inherited one would shadow the base class afterwards.
                original = vars(hook.owner)[hook.attr]
                saved.append((hook.owner, hook.attr, original))
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(
                        self._wrap(hook, original.__func__)
                    )
                else:
                    wrapped = self._wrap(hook, original)
                setattr(hook.owner, hook.attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span."""
        selfs = self_times(self.spans)
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = totals[span.name]
            entry[0] += 1
            entry[1] += selfs[span.span_id]
        return {name: (int(c), s) for name, (c, s) in totals.items()}

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": s.span_id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }, separators=(",", ":")))
                out.write("\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    counters: Dict[str, int],
    sensor_count: int,
    untraced_run_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``counters`` are the record's telemetry counters (``profile=True``);
    ``untraced_run_s`` is the same run timed without wrappers, so the
    difference is the tracing overhead.
    """
    totals = tracer.layer_totals()
    calls_root, unclaimed = totals[ROOT_SPAN]
    if calls_root != 1:
        raise ValueError(f"expected one root span, got {calls_root}")
    root = next(s for s in tracer.spans if s.name == ROOT_SPAN)
    run_s = root.end - root.start
    counts = tracer.counts
    values: Dict[str, float] = {}
    for span in SPAN_NAMES:
        calls, seconds = totals.get(span, (0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}.self_ms"] = seconds * 1e3
    values.update({
        "sim.unclaimed_frac": _ratio(unclaimed, run_s),
        "core.cpvf.parent_changes": counters.get("cpvf.parent_changes", 0),
        "core.cpvf.lock_aborts": counters.get("cpvf.lock_aborts", 0),
        "core.registry.covered_ratio": _ratio(
            counts["registry.covered"], totals.get("core.registry", (0,))[0]
        ),
        "core.invitations.accept_ratio": _ratio(
            counters.get("floor.relocations_started", 0),
            counters.get("floor.invitations_issued", 0),
        ),
        "spatial.pairs.candidates": counts["pairs.candidates"],
        "spatial.pairs.bytes": counts["pairs.bytes"],
        "network.dropped": counters.get("net.dropped", 0),
        "network.retries": counters.get("net.retries", 0),
        "network.timeouts": counters.get("net.timeouts", 0),
        "network.messages_per_node": _ratio(
            counters.get("messages.total", 0), sensor_count
        ),
        "mobility.bug2.path_ratio": _ratio(
            counts["bug2.planned_m"], counts["bug2.straight_m"]
        ),
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - untraced_run_s,
    })
    for message_type in MESSAGE_TYPES:
        values[f"network.messages.{message_type}"] = counters.get(
            f"messages.{message_type}", 0
        )
    return values
