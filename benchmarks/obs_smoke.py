#!/usr/bin/env python
"""CI observability smoke: profiled-run round-trip, report CLI, overhead.

Three gates over the telemetry subsystem (``repro.obs``):

1. **Profiled round-trip** — a profiled ``execute_run`` must attach a
   ``TelemetrySummary`` with engine phases and deterministic counters,
   survive a JSON round-trip through ``RunRecord.to_dict``, and leave the
   spec fingerprint identical to the unprofiled run (profiling must never
   split the store's cache cells).
2. **Report CLI** — a JSONL trace exported from the profiled record must
   render through ``python -m repro.obs report`` without error.
3. **Overhead** — the committed ``telemetry_overhead`` entry of
   ``BENCH_perf.json`` must show the null-sink traced batched CPVF period
   within ``MAX_COMMITTED_OVERHEAD_PCT`` of the untraced one, and a fresh
   traced measurement at n = 500 must stay within a generous CI budget of
   both the fresh untraced period and the committed ``fast_ms``.

Exit codes: 0 on pass, 1 on failure — including a missing
``BENCH_perf.json`` or ``telemetry_overhead`` entry, which fails the
overhead gate rather than skipping it.  See ``docs/observability.md``.
"""

from __future__ import annotations

import io
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

N = 500
#: The contract asserted when BENCH_perf.json was generated on the quiet
#: bench host; re-checked here so a regenerated entry cannot silently
#: commit a regression.
MAX_COMMITTED_OVERHEAD_PCT = 5.0
#: Fresh-measurement budget factor — hosted CI runners are noisy, so the
#: live gate only catches order-of-magnitude instrumentation regressions.
CI_BUDGET_FACTOR = 3.0


def check_profiled_roundtrip() -> list:
    from repro.api import RunRecord, RunSpec, ScenarioSpec, execute_run

    scenario = ScenarioSpec(
        field_size=300.0,
        sensor_count=24,
        communication_range=60.0,
        sensing_range=40.0,
        duration=20.0,
        coverage_resolution=15.0,
        seed=5,
    )
    plain_spec = RunSpec(scenario=scenario, scheme="CPVF", trace_every=2)
    profiled_spec = RunSpec(
        scenario=scenario, scheme="CPVF", trace_every=2, profile=True
    )
    failures = []
    if plain_spec.fingerprint() != profiled_spec.fingerprint():
        failures.append("round-trip: profile=True changed the fingerprint")

    record = execute_run(profiled_spec)
    summary = record.telemetry
    if summary is None:
        failures.append("round-trip: profiled record has no telemetry")
        return failures, record
    if "engine.scheme_step" not in summary.phases:
        failures.append(
            "round-trip: summary lacks the engine.scheme_step phase "
            f"(has {sorted(summary.phases)})"
        )
    if summary.counters.get("engine.periods", 0) <= 0:
        failures.append("round-trip: engine.periods counter missing/zero")
    restored = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    if restored.telemetry != summary:
        failures.append("round-trip: TelemetrySummary did not survive JSON")

    plain = execute_run(plain_spec)
    if plain.telemetry is not None:
        failures.append("round-trip: unprofiled record carries telemetry")
    if plain.coverage != record.coverage:
        failures.append("round-trip: profiling changed the simulation result")
    print(
        f"obs-smoke: round-trip {'FAIL' if failures else 'ok'} "
        f"(phases={len(summary.phases)} counters={len(summary.counters)})"
    )
    return failures, record


def check_report_cli(record) -> list:
    from repro.obs.report import write_record_trace

    buffer = io.StringIO()
    lines = write_record_trace(buffer, [record])
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", "-"],
        input=buffer.getvalue(),
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    failures = []
    if proc.returncode != 0:
        failures.append(f"report: CLI exited {proc.returncode}: {proc.stderr}")
    elif "phase breakdown" not in proc.stdout:
        failures.append("report: CLI output missing the phase table")
    print(
        f"obs-smoke: report CLI {'FAIL' if failures else 'ok'} "
        f"({lines} trace lines)"
    )
    return failures


def check_overhead() -> list:
    bench_path = REPO_ROOT / "BENCH_perf.json"
    if not bench_path.exists():
        return ["overhead: no committed BENCH_perf.json"]
    bench = json.loads(bench_path.read_text())
    entry = next(iter(bench.get("telemetry_overhead", ())), None)
    if entry is None:
        return ["overhead: no committed telemetry_overhead entry"]

    failures = []
    if entry["overhead_pct"] > MAX_COMMITTED_OVERHEAD_PCT:
        failures.append(
            f"overhead: committed entry shows {entry['overhead_pct']:.1f}% "
            f"null-sink overhead (contract: <= {MAX_COMMITTED_OVERHEAD_PCT}%)"
        )

    from repro.experiments.perfbench import _timed_periods
    from repro.obs import Telemetry

    untraced_ms = 1000.0 * min(
        _timed_periods(N, seed=3, fast=True, periods=4, mode="batched")
        for _ in range(2)
    )
    traced_ms = 1000.0 * min(
        _timed_periods(
            N, seed=3, fast=True, periods=4, mode="batched",
            telemetry=Telemetry(),
        )
        for _ in range(2)
    )
    budget_ms = CI_BUDGET_FACTOR * untraced_ms
    row = next(
        (r for r in bench.get("cpvf_period", ()) if r.get("n") == N), None
    )
    if row is not None and "fast_ms" in row:
        budget_ms = min(budget_ms, CI_BUDGET_FACTOR * row["fast_ms"])
    if traced_ms > budget_ms:
        failures.append(
            f"overhead: traced n={N} batched period {traced_ms:.2f} ms "
            f"exceeds CI budget {budget_ms:.2f} ms"
        )
    print(
        f"obs-smoke: overhead {'FAIL' if failures else 'ok'} "
        f"(committed +{entry['overhead_pct']:.1f}%; fresh n={N} "
        f"untraced={untraced_ms:.2f} ms traced={traced_ms:.2f} ms)"
    )
    return failures


def main() -> int:
    failures, record = check_profiled_roundtrip()
    failures = list(failures)
    if record.telemetry is not None:
        failures += check_report_cli(record)
    failures += check_overhead()
    if failures:
        for failure in failures:
            print(f"obs-smoke: {failure}", file=sys.stderr)
        return 1
    print("obs-smoke: all gates ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
