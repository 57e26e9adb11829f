"""Run and sweep specifications and the typed run record.

The paper's whole evaluation is a grid of independent runs — scheme
crossed with ranges, population sizes, seeds and fields.  This module
gives that grid a declarative shape:

* :class:`RunSpec` — one run: a :class:`~repro.api.scenario.ScenarioSpec`
  plus a registered scheme name, scheme parameters, tracing options and
  free-form tags for experiment bookkeeping;
* :class:`RunRecord` — the typed, JSON-serializable outcome of one run;
* :class:`SweepSpec` — a named tuple of runs, with a :meth:`SweepSpec.grid`
  helper that expands cartesian axes and spawns per-repetition seeds.

Everything is frozen and picklable, so sweeps shard cleanly across worker
processes (:class:`repro.api.sweep.SweepRunner`) and records persist as
JSON artifacts (``runner --out``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..metrics.recovery import EventOutcome
from ..network import NETWORK_SCHEMA_VERSION, NetworkSpec
from ..obs import TelemetrySummary
from .scenario import Params, ScenarioSpec, freeze_params, thaw_params
from .seeds import derive_seed

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "canonical_json",
    "run_fingerprint",
    "TracePoint",
    "RunSpec",
    "RunRecord",
    "SweepSpec",
]

#: Version of the spec/record semantics covered by :func:`run_fingerprint`.
#: Bump it whenever a change makes previously computed records stale for
#: the *same* spec content — a scheme implementation change that alters
#: results, a new record field, a serialization change.  The version is
#: hashed into every fingerprint, so bumping it invalidates every
#: content-addressed store entry at once (old entries simply never match
#: again and are reclaimed by ``repro.service``'s GC).
#:
#: History: 2 — the default CPVF mode became ``"batched"``.  Default
#: scheme params are not part of the spec content, so a spec without an
#: explicit ``mode`` hashes alike before and after; only the version
#: keeps schema-1 records of the old default from being served.
SPEC_SCHEMA_VERSION = 2


def canonical_json(data: Any) -> str:
    """The canonical JSON serialization used for content addressing.

    Key order, whitespace and non-finite floats are all pinned down, so
    two structurally equal payloads always serialize to the same bytes —
    the property :func:`run_fingerprint` relies on.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def run_fingerprint(spec: "RunSpec") -> str:
    """Canonical blake2b fingerprint of a run spec's semantic content.

    The digest covers every field that determines the run's outcome — the
    full scenario (layout, placement, population, ranges, seed, event
    timeline), the scheme and its parameters, and the record-shaping
    options (``trace_every``, ``keep_positions``) — plus
    :data:`SPEC_SCHEMA_VERSION`.  It deliberately excludes ``tags``:
    bookkeeping does not change the computation, so sweeps that differ
    only in labelling share cache cells (the store re-attaches the
    requesting spec's tags on a hit).

    Specs are JSON-round-trippable and all run randomness is derived from
    the spec's own seed, so the fingerprint fully determines the record.
    """
    payload = canonical_json(
        {"schema": SPEC_SCHEMA_VERSION, "spec": spec.canonical_dict()}
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=20).hexdigest()


@dataclass(frozen=True)
class TracePoint:
    """Coverage/metrics snapshot at the end of one traced period."""

    time: float
    coverage: float
    average_moving_distance: float
    total_messages: int
    connected_sensors: int

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "TracePoint":
        return TracePoint(**data)


@dataclass(frozen=True)
class RunSpec:
    """One independent run: scenario x scheme (+ options and tags)."""

    scenario: ScenarioSpec
    #: Registered scheme name (see :data:`repro.api.scheme_registry`).
    scheme: str = "CPVF"
    #: Scheme-specific options (e.g. ``rounds`` for the VD baselines).
    scheme_params: Params = ()
    #: Record a metrics trace every this many periods (``None`` = no trace).
    trace_every: Optional[int] = None
    #: Keep the final sensor positions in the record (needed by the
    #: Hungarian lower bounds and layout plots; off by default to keep
    #: sweep records light).
    keep_positions: bool = False
    #: Collect telemetry (phase spans + counters) and attach the
    #: :class:`~repro.obs.TelemetrySummary` to the record.  Excluded from
    #: the fingerprint like ``tags``: profiling observes the run, it does
    #: not change the computation, so profiled and unprofiled sweeps
    #: share cache cells.
    profile: bool = False
    #: Network delivery conditions (loss / latency / staleness).  ``None``
    #: — and any *structural* spec (perfect model or all-degenerate
    #: knobs) — means the pinned perfect network: such specs are omitted
    #: from the fingerprint payload entirely, so pre-existing fingerprints
    #: and store entries never move.  Non-structural specs are hashed in
    #: (with :data:`~repro.network.NETWORK_SCHEMA_VERSION`), giving
    #: degraded runs their own cache cells.
    network: Optional[NetworkSpec] = None
    #: Free-form experiment bookkeeping (scenario label, sweep axis values,
    #: repetition index, ...); carried through to the record untouched.
    tags: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme_params", freeze_params(self.scheme_params))
        object.__setattr__(self, "tags", freeze_params(self.tags))

    def tag(self, key: str, default: Any = None) -> Any:
        """The value of one bookkeeping tag."""
        return thaw_params(self.tags).get(key, default)

    def replace(self, **overrides) -> "RunSpec":
        """A copy with some fields replaced."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "scheme": self.scheme,
            "scheme_params": thaw_params(self.scheme_params),
            "trace_every": self.trace_every,
            "keep_positions": self.keep_positions,
            "profile": self.profile,
            "network": (
                self.network.to_dict() if self.network is not None else None
            ),
            "tags": thaw_params(self.tags),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunSpec":
        data = dict(data)
        data["scenario"] = ScenarioSpec.from_dict(data["scenario"])
        # Back-compat: pre-conditions payloads have no "network" key.
        network = data.get("network")
        data["network"] = NetworkSpec.from_dict(network) if network else None
        return RunSpec(**data)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def canonical_dict(self) -> Dict[str, Any]:
        """The result-determining content of this spec, normalized.

        Like :meth:`to_dict` but without ``tags`` (pure bookkeeping) or
        ``profile`` (pure observation) — the payload
        :func:`run_fingerprint` hashes.  Params are already
        order-normalized at freeze time, and :func:`canonical_json`
        sorts every remaining key.
        """
        data = self.to_dict()
        del data["tags"]
        del data["profile"]
        if self.network is None or self.network.is_structural():
            # A structural network is the seed behaviour; omitting it keeps
            # pre-conditions fingerprints (and cached records) valid.
            del data["network"]
        else:
            data["network"] = {
                "version": NETWORK_SCHEMA_VERSION,
                **self.network.to_dict(),
            }
        return data

    def fingerprint(self) -> str:
        """Canonical content fingerprint (see :func:`run_fingerprint`)."""
        return run_fingerprint(self)


@dataclass(frozen=True)
class RunRecord:
    """Typed outcome of one run, identical whether run serially or sharded."""

    spec: RunSpec
    #: Canonical scheme name (registration-time spelling).
    scheme: str
    #: Final coverage fraction in ``[0, 1]``.
    coverage: float
    #: Average per-sensor odometer reading in metres.
    average_moving_distance: float
    #: Summed odometer readings in metres.
    total_moving_distance: float
    #: Total protocol transmissions.
    total_messages: int
    #: Whether every sensor has a multi-hop route to the base station.
    connected: bool
    #: Periods (or rounds, for the VD baselines) actually executed.
    periods_executed: int = 0
    #: Period at which the scheme reported convergence, if it did.
    converged_at: Optional[int] = None
    #: Scheme-specific extra metrics (e.g. Voronoi-cell correctness).
    extras: Params = ()
    #: Per-period metrics trace (populated when ``spec.trace_every`` is set).
    trace: Tuple[TracePoint, ...] = ()
    #: Recovery metrics, one per lifecycle event the scenario fired.
    events: Tuple[EventOutcome, ...] = ()
    #: Final ``(x, y)`` positions (populated when ``spec.keep_positions``).
    final_positions: Optional[Tuple[Tuple[float, float], ...]] = None
    #: Phase-time breakdown + counter totals (populated when
    #: ``spec.profile``).  Counter values are deterministic; phase seconds
    #: are wall-clock.  Absent (``None``) in unprofiled and pre-telemetry
    #: records.
    telemetry: Optional[TelemetrySummary] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "extras", freeze_params(self.extras))
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "events", tuple(self.events))
        if self.final_positions is not None:
            object.__setattr__(
                self,
                "final_positions",
                tuple(tuple(point) for point in self.final_positions),
            )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def scenario(self) -> ScenarioSpec:
        """The scenario this record was produced under."""
        return self.spec.scenario

    def tag(self, key: str, default: Any = None) -> Any:
        """A bookkeeping tag carried over from the spec."""
        return self.spec.tag(key, default)

    def extra(self, key: str, default: Any = None) -> Any:
        """A scheme-specific extra metric."""
        return thaw_params(self.extras).get(key, default)

    def rebind(self, spec: RunSpec) -> "RunRecord":
        """This record re-attached to ``spec`` (which must fingerprint-match).

        Cache hits serve records computed for a *semantically* identical
        spec; the requesting sweep's bookkeeping tags may differ, and the
        determinism contract promises records identical to a fresh run.
        Rebinding swaps the spec (tags included) without touching any
        computed field.
        """
        if spec.fingerprint() != self.spec.fingerprint():
            raise ValueError(
                "cannot rebind a record to a spec with a different fingerprint"
            )
        return dataclasses.replace(self, spec=spec)

    def messages_per_node(self) -> float:
        """Average protocol transmissions per sensor."""
        count = self.spec.scenario.sensor_count
        return self.total_messages / count if count else 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (round-trips through :meth:`from_dict`)."""
        return {
            "spec": self.spec.to_dict(),
            "scheme": self.scheme,
            "coverage": self.coverage,
            "average_moving_distance": self.average_moving_distance,
            "total_moving_distance": self.total_moving_distance,
            "total_messages": self.total_messages,
            "connected": self.connected,
            "periods_executed": self.periods_executed,
            "converged_at": self.converged_at,
            "extras": thaw_params(self.extras),
            "trace": [point.to_dict() for point in self.trace],
            "events": [outcome.to_dict() for outcome in self.events],
            "final_positions": (
                [list(point) for point in self.final_positions]
                if self.final_positions is not None
                else None
            ),
            "telemetry": (
                self.telemetry.to_dict() if self.telemetry is not None else None
            ),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        data = dict(data)
        data["spec"] = RunSpec.from_dict(data["spec"])
        data["trace"] = tuple(
            TracePoint.from_dict(point) for point in data.get("trace", ())
        )
        data["events"] = tuple(
            EventOutcome.from_dict(outcome) for outcome in data.get("events", ())
        )
        # Back-compat: pre-telemetry payloads have no "telemetry" key.
        telemetry = data.get("telemetry")
        data["telemetry"] = (
            TelemetrySummary.from_dict(telemetry) if telemetry else None
        )
        return RunRecord(**data)


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of independent runs (one figure/table sweep)."""

    name: str
    runs: Tuple[RunSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    @staticmethod
    def grid(
        name: str,
        scenario: ScenarioSpec,
        schemes: Sequence[str] = ("CPVF",),
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        repetitions: int = 1,
        scheme_params: Union[Mapping[str, Any], Params, None] = None,
        trace_every: Optional[int] = None,
        keep_positions: bool = False,
        profile: bool = False,
        network: Optional[NetworkSpec] = None,
        tags: Union[Mapping[str, Any], Params, None] = None,
    ) -> "SweepSpec":
        """Expand a cartesian grid of scenario overrides into runs.

        ``axes`` maps :class:`ScenarioSpec` field names to value lists; the
        cartesian product of all axes (in insertion order), crossed with
        ``schemes``, yields one :class:`RunSpec` per point, each tagged with
        its axis values.  ``repetitions > 1`` repeats every point with a
        deterministic per-repetition seed spawned from the scenario seed
        (tagged ``rep``), so sharded and serial executions agree.
        """
        axis_items = list((axes or {}).items())

        def expand(index: int, overrides: Dict[str, Any]):
            if index == len(axis_items):
                yield dict(overrides)
                return
            field_name, values = axis_items[index]
            for value in values:
                overrides[field_name] = value
                yield from expand(index + 1, overrides)
                del overrides[field_name]

        base_tags = thaw_params(freeze_params(tags))
        runs: List[RunSpec] = []
        for overrides in expand(0, {}):
            for rep in range(max(1, repetitions)):
                point = scenario.replace(**overrides)
                run_tags = dict(base_tags)
                run_tags.update(overrides)
                if repetitions > 1:
                    # Spawn from the point's own seed (axes may override it),
                    # so a seed axis still yields distinct repetitions.
                    point = point.replace(seed=derive_seed(point.seed, rep))
                    run_tags["rep"] = rep
                for scheme in schemes:
                    runs.append(
                        RunSpec(
                            scenario=point,
                            scheme=scheme,
                            scheme_params=freeze_params(scheme_params),
                            trace_every=trace_every,
                            keep_positions=keep_positions,
                            profile=profile,
                            network=network,
                            tags=run_tags,
                        )
                    )
        return SweepSpec(name=name, runs=tuple(runs))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "runs": [run.to_dict() for run in self.runs]}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SweepSpec":
        return SweepSpec(
            name=data["name"],
            runs=tuple(RunSpec.from_dict(run) for run in data["runs"]),
        )
