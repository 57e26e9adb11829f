#!/usr/bin/env python
"""CI perf smoke: a batched CPVF period and a coverage update vs budget.

Times a batched-mode CPVF period at n = 500 (clustered, the canonical
bench layout) and compares it with the committed ``cpvf_period`` n=500
``fast_ms`` row of ``BENCH_perf.json``.  The budget is deliberately
generous — ``3 x fast_ms`` — because hosted CI runners are noisy and
this gate exists to catch order-of-magnitude regressions (an
accidentally quadratic path, a lost cache), not timer jitter.

A second check drives the same configuration with telemetry installed
and asserts the *incremental pair maintenance* path actually engaged —
most timed periods must be answered from the maintained pair store
(``cpvf.pairs_repaired``) rather than rebuilt from scratch
(``cpvf.pairs_rebuilt``).  This catches a silent fall-back-to-rebuild
regression (an eligibility check accidentally failing, the store being
dropped every epoch) that the generous timing budget alone would let
through at n = 500.

A third check times a coverage update in which all n = 1000 sensors
moved (``measure_coverage(1000, moved_fraction=1.0)``) against
``3 x fast_ms`` of the committed all-moved ``coverage`` n=1000 row, so a
fall back to per-disk rasterisation fails the gate.

Exit codes: 0 on pass; 1 when a measurement exceeds its budget, the
incremental path never engaged, or a committed reference
(``BENCH_perf.json``, its ``cpvf_period`` n=500 row or its all-moved
``coverage`` n=1000 row) is missing — a gate without its reference fails
rather than skips.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

N = 500
COVERAGE_N = 1000
BUDGET_FACTOR = 3.0


def main() -> int:
    bench_path = REPO_ROOT / "BENCH_perf.json"
    if not bench_path.exists():
        print("perf-smoke: FAIL (no committed BENCH_perf.json)")
        return 1
    bench = json.loads(bench_path.read_text())
    period_ok = check_cpvf_period(bench)
    coverage_ok = check_coverage(bench)
    return 0 if period_ok and coverage_ok else 1


def check_cpvf_period(bench: dict) -> bool:
    """Batched n=500 period within budget, served by the pair store."""
    row = next(
        (r for r in bench.get("cpvf_period", ()) if r.get("n") == N), None
    )
    if row is None or "fast_ms" not in row:
        print(f"perf-smoke: FAIL (no committed cpvf_period n={N} entry)")
        return False

    from repro.experiments.perfbench import _timed_periods
    from repro.obs import Telemetry

    batched_s = _timed_periods(
        N, seed=3, fast=True, periods=4, mode="batched"
    )
    batched_ms = batched_s * 1000.0
    budget_ms = BUDGET_FACTOR * row["fast_ms"]
    verdict = "ok" if batched_ms <= budget_ms else "FAIL"
    print(
        f"perf-smoke: n={N} batched period {batched_ms:.2f} ms, "
        f"budget {budget_ms:.2f} ms (3 x committed fast_ms "
        f"{row['fast_ms']:.2f} ms) -> {verdict}"
    )
    if verdict != "ok":
        return False

    tel = Telemetry()
    _timed_periods(
        N, seed=3, fast=True, periods=4, mode="batched", telemetry=tel
    )
    counters = tel.summary().counters
    repaired = counters.get("cpvf.pairs_repaired", 0)
    rebuilt = counters.get("cpvf.pairs_rebuilt", 0)
    # Drift accumulates toward the store's slack budget over the window,
    # so one mid-window rebuild is legitimate; the incremental path must
    # still dominate.
    incremental_ok = repaired >= 2 and repaired >= rebuilt
    print(
        f"perf-smoke: incremental pairs repaired={repaired} "
        f"rebuilt={rebuilt} -> {'ok' if incremental_ok else 'FAIL'}"
    )
    return incremental_ok


def check_coverage(bench: dict) -> bool:
    """An all-moved n=1000 coverage update within budget."""
    row = next(
        (
            r
            for r in bench.get("coverage", ())
            if r.get("n") == COVERAGE_N and r.get("moved_per_round") == COVERAGE_N
        ),
        None,
    )
    if row is None or "fast_ms" not in row:
        print(
            f"perf-smoke: FAIL (no committed all-moved coverage "
            f"n={COVERAGE_N} entry)"
        )
        return False

    from repro.experiments.perfbench import measure_coverage

    fast_ms = measure_coverage(COVERAGE_N, seed=3, moved_fraction=1.0)["fast_ms"]
    budget_ms = BUDGET_FACTOR * row["fast_ms"]
    ok = fast_ms <= budget_ms
    print(
        f"perf-smoke: n={COVERAGE_N} all-moved coverage update "
        f"{fast_ms:.2f} ms, budget {budget_ms:.2f} ms (3 x committed "
        f"fast_ms {row['fast_ms']:.2f} ms) -> {'ok' if ok else 'FAIL'}"
    )
    return ok


if __name__ == "__main__":
    raise SystemExit(main())
