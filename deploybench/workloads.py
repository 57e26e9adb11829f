"""The benchmark's workloads and end-to-end metric names.

Each workload is one whole deployment run through the public API
(``ScenarioSpec`` -> ``RunSpec`` -> ``execute_run``).  The benchmark's
``--seed`` becomes ``ScenarioSpec.seed`` and nothing else: the program sees
only the generated spec.  Every workload also has a tiny-scale variant with
the same shape (scheme, mode, layout, events, network), used to warm the
process before timing and by the benchmark's own tests.

Why each workload exists is in ``deploybench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.api import NetworkSpec, RunSpec, ScenarioSpec
from repro.experiments.common import ExperimentScale
from repro.experiments.lifecycle import lifecycle_events

__all__ = ["END_TO_END", "Workload", "WORKLOADS"]

#: End-to-end metrics reported with ``--trace 0``: ``(name, unit)``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage_final", "fraction"),
    ("avg_move_m", "m"),
    ("recovery_ratio_min", "ratio"),
)

#: Scale of the tiny churn variant (the lifecycle scripts scale with it).
_TINY_SCALE = ExperimentScale(
    field_size=300.0, sensor_count=24, duration=80.0, coverage_resolution=15.0
)
#: Scale of the full churn run: Fig 3(a)'s setting over a third of its
#: horizon, so one timed measurement holds several runs.
_CHURN_SCALE = ExperimentScale(duration=250.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: One-line rationale (mirrored in ``BENCHMARK.json``).
    why: str
    #: ``(seed, tiny) -> RunSpec``.
    build: Callable[[int, bool], RunSpec]
    #: Whether the paper's connectivity guarantee applies to the final
    #: layout (CPVF under the perfect network).
    connectivity_guaranteed: bool


def _fig3a(seed: int, tiny: bool) -> RunSpec:
    if tiny:
        scenario = ScenarioSpec(
            field_size=300.0, sensor_count=24, duration=40.0,
            coverage_resolution=15.0, seed=seed,
        )
    else:
        # The paper's Fig 3(a): every ScenarioSpec default is that setting.
        scenario = ScenarioSpec(seed=seed)
    return RunSpec(scenario, "CPVF", trace_every=10, keep_positions=True)


def _floor_obstacles(seed: int, tiny: bool) -> RunSpec:
    scenario = ScenarioSpec(
        field_size=300.0 if tiny else 500.0,
        layout="two-obstacle",
        sensor_count=24 if tiny else 120,
        # 60 periods: ~120 relocations and ~100 BUG2 paths past the
        # obstacles, short enough to repeat within one timed measurement.
        duration=40.0 if tiny else 60.0,
        coverage_resolution=15.0 if tiny else 10.0,
        seed=seed,
    )
    return RunSpec(scenario, "FLOOR", trace_every=10, keep_positions=True)


def _cpvf_scale(seed: int, tiny: bool) -> RunSpec:
    scenario = ScenarioSpec(
        # 5x10^3 sensors: pair-dominated like 10^4, but a run is short
        # enough to repeat several times within one timed measurement.
        sensor_count=400 if tiny else 5_000,
        duration=4.0 if tiny else 8.0,
        seed=seed,
    )
    return RunSpec(
        scenario, "CPVF", scheme_params={"mode": "batched"},
        keep_positions=True,
    )


def _churn_lossy(seed: int, tiny: bool) -> RunSpec:
    base = _fig3a(seed, tiny)
    scale = _TINY_SCALE if tiny else _CHURN_SCALE
    # reinforcements (25% kill, then joins) composed with mass-failure
    # (20% kill): three events in time order.
    events = lifecycle_events("reinforcements", scale) + lifecycle_events(
        "mass-failure", scale
    )
    return base.replace(
        scenario=base.scenario.replace(duration=scale.duration, events=events),
        network=NetworkSpec(model="unreliable", loss=0.1),
        # Recovery tracking measures coverage every period until an event
        # settles, and how long that takes depends on the seed; at
        # trace_every=10 that made run_s bimodal across seeds (IQR/median
        # 0.26 over ten seeds).  Tracing every period makes every seed pay
        # the same coverage measurements (the tracker's repeat is free).
        trace_every=1,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig3a-cpvf",
            "the paper's Fig 3(a) CPVF run users reproduce: per-period "
            "Python work at n=240 plus the coverage trace",
            _fig3a,
            connectivity_guaranteed=True,
        ),
        Workload(
            "floor-obstacles",
            "FLOOR past two obstacles: expansion points, registry coverage "
            "tests, invitations, BUG2 paths; no CPVF or pair store",
            _floor_obstacles,
            connectivity_guaranteed=False,
        ),
        Workload(
            "cpvf-scale-5e3",
            "batched CPVF at n=5x10^3: pair build/serve/repair, forces and "
            "memory dominate; per-period Python overhead does not",
            _cpvf_scale,
            connectivity_guaranteed=True,
        ),
        Workload(
            "churn-lossy",
            "Fig 3(a)'s setting over 250 periods with kills, joins and 10% "
            "message loss: lifecycle, tree repair, retries and cache "
            "invalidation",
            _churn_lossy,
            connectivity_guaranteed=False,
        ),
    )
}

