"""Measure one workload in this process (the benchmark's child process).

``run.py`` starts one child per workload so that ``peak_rss_mb`` — the
process high-water mark — belongs to that workload alone::

    python3 -m deploybench.measure '{"workload": "fig3a-cpvf", "seed": 1,
                                     "seconds": 24, "trace": false}'

The child prints one JSON object as its last line of output.  Untraced
(``trace`` false) it reports the end-to-end metrics:

1. ``setup_s``: ``build_field`` + ``build_world`` + the scheme's
   ``initialize``, timed as separate public calls, median of several;
2. a tiny-scale run of the same workload warms the process;
3. ``run_s``: whole ``execute_run`` calls, closed loop, one at a time,
   while the next one fits in ``seconds`` (at least one), median;
4. every run's output is checked (:func:`check_record`).

Traced, it times one untraced run and one traced run of the workload and
reports the per-layer metrics (:mod:`deploybench.trace`).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api import RunRecord, RunSpec, execute_run, scheme_registry
from repro.api.scenario import thaw_params
from repro.geometry import Vec2

from deploybench.trace import ROOT_SPAN, Tracer, layer_hooks, per_layer_metrics
from deploybench.workloads import WORKLOADS, Workload

__all__ = [
    "CHECK_RUNS",
    "check_only",
    "check_record",
    "comparable",
    "end_to_end_metrics",
    "measure",
    "time_setup",
]

#: Runs per held-out-seed check: the determinism check needs a
#: repetition to compare with the first.  A timed measurement repeats
#: while the budget allows, so it checks its own repetitions too.
CHECK_RUNS = 2
#: Set-up repetitions: at least this many, more while they are cheap.
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_BUDGET_S = 2.0

#: Where the traced run writes its spans.
OUT_DIR = Path(__file__).resolve().parent / "out"


def time_setup(spec: RunSpec) -> float:
    """Seconds to build the field, the world and the initialized scheme."""
    scenario = spec.scenario
    adapter = scheme_registry.get(spec.scheme)
    started = time.perf_counter()
    field = scenario.build_field()
    world = scenario.build_world(field)
    if spec.network is not None:
        world.network = spec.network.build(scenario.seed)
    scheme = adapter.build_scheme(scenario, thaw_params(spec.scheme_params))
    scheme.initialize(world)
    return time.perf_counter() - started


def comparable(record: RunRecord) -> Dict[str, Any]:
    """The record without telemetry or the profile flag (wall-clock
    observation only), for run-to-run comparison."""
    plain = dataclasses.replace(
        record, spec=record.spec.replace(profile=False), telemetry=None
    )
    return plain.to_dict()


def check_record(
    wl: Workload,
    spec: RunSpec,
    record: RunRecord,
    reference: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Problems with one run's output (empty when it passes).

    * under CPVF on the perfect network the final network is connected
      (the paper's guarantee);
    * every final position is inside the field and outside obstacles;
    * the record equals the first repetition's at the same seed
      (``reference``, from :func:`comparable`).
    """
    problems: List[str] = []
    if wl.connectivity_guaranteed and not record.connected:
        problems.append("final network is not connected")
    field = spec.scenario.build_field()
    outside = [
        p for p in record.final_positions or () if not field.is_free(Vec2(*p))
    ]
    if record.final_positions is None:
        problems.append("record has no final positions")
    elif outside:
        problems.append(
            f"{len(outside)} final positions outside the field or inside "
            f"an obstacle, first {outside[0]}"
        )
    if reference is not None and comparable(record) != reference:
        problems.append("record differs from the first repetition")
    return problems


def end_to_end_metrics(record: RunRecord) -> Dict[str, float]:
    """The output metrics of one run (deterministic for a seed)."""
    ratios = [event.recovery_ratio for event in record.events]
    return {
        "coverage_final": record.coverage,
        "avg_move_m": record.average_moving_distance,
        # A run without events lost nothing: its recovery is complete.
        "recovery_ratio_min": min(ratios) if ratios else 1.0,
    }


class _Runs:
    """Checked runs of one spec: attempted, failed, and the reference."""

    def __init__(self, wl: Workload, spec: RunSpec):
        self.wl, self.spec = wl, spec
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[Dict[str, Any]] = None
        self.first: Optional[RunRecord] = None

    def run(self, spec: Optional[RunSpec] = None, runner=execute_run):
        """One checked run; returns ``(record or None, seconds)``."""
        gc.collect()
        self.attempted += 1
        started = time.perf_counter()
        try:
            record = runner(spec or self.spec)
        except Exception:  # a raising run is a failed run, not a crash
            elapsed = time.perf_counter() - started
            self.failed += 1
            self.problems.append("run raised:\n" + traceback.format_exc())
            return None, elapsed
        elapsed = time.perf_counter() - started
        problems = check_record(self.wl, self.spec, record, self.reference)
        if self.reference is None:
            self.reference = comparable(record)
            self.first = record
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return record, elapsed

    def result(self, metrics: Dict[str, float], info: Dict[str, Any]):
        """The child's JSON result."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "metrics": metrics,
            "info": info,
        }


def _warm_up(wl: Workload, seed: int) -> None:
    spec = wl.build(seed, tiny=True)
    time_setup(spec)
    execute_run(spec)


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    out_dir: Path = OUT_DIR,
) -> Dict[str, Any]:
    """Measure one workload; returns the child's JSON result.

    The traced run writes its spans under ``out_dir``.
    """
    wl = WORKLOADS[name]
    spec = wl.build(seed, tiny)
    runs = _Runs(wl, spec)
    info: Dict[str, Any] = {"workload": name, "seed": seed}
    if not trace:
        setups: List[float] = []
        while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
        ):
            gc.collect()
            setups.append(time_setup(spec))
        _warm_up(wl, seed)
        times: List[float] = []
        started = time.perf_counter()
        while True:
            _, elapsed = runs.run()
            times.append(elapsed)
            spent = time.perf_counter() - started
            if spent + statistics.median(times) > seconds:
                break
        metrics: Dict[str, float] = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        info.update(
            run_samples=len(times), run_range_s=[min(times), max(times)],
            setup_samples=len(setups),
        )
    else:
        _warm_up(wl, seed)
        _, untraced_s = runs.run()
        tracer = Tracer(run_id=f"{name}-seed{seed}")
        hooks = layer_hooks()

        def traced_run(traced_spec: RunSpec) -> RunRecord:
            # Installed around the run only, so the output checks that
            # follow it are not traced.
            with tracer.installed(hooks):
                return tracer.call(ROOT_SPAN, execute_run, traced_spec)

        # profile=True adds the record's telemetry counters.
        record, _ = runs.run(spec.replace(profile=True), runner=traced_run)
        metrics = {}
        if record is not None:
            metrics = per_layer_metrics(
                tracer,
                dict(record.telemetry.counters),
                spec.scenario.sensor_count,
                untraced_s,
            )
            out_dir.mkdir(parents=True, exist_ok=True)
            spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl.gz"
            tracer.write(spans_path)
            info.update(spans=str(spans_path), span_count=len(tracer.spans))
    if runs.first is not None:
        info["messages_per_node"] = runs.first.messages_per_node()
        if not trace:
            metrics.update(end_to_end_metrics(runs.first))
    return runs.result(metrics, info)


def check_only(name: str, seed: int, tiny: bool = False) -> Dict[str, Any]:
    """Run the workload twice at ``seed`` with every output check, untimed
    (the held-out-seed mode)."""
    wl = WORKLOADS[name]
    runs = _Runs(wl, wl.build(seed, tiny))
    for _ in range(CHECK_RUNS):
        runs.run()
    return runs.result({}, {"workload": name, "seed": seed})


def main(argv: List[str]) -> int:
    request = json.loads(argv[0])
    if request.get("check_only"):
        result = check_only(request["workload"], request["seed"])
    else:
        result = measure(
            request["workload"],
            request["seed"],
            request["seconds"],
            request["trace"],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
