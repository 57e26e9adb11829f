#!/usr/bin/env python
"""CI network smoke: the unreliable-network backend under 10% loss.

Runs both paper schemes at the smoke scale on the same scenario twice —
once on the perfect network and once at 10% per-message loss with the
default retry budget — and gates on the robustness contract: each scheme
must retain at least 85% of its own perfect-network coverage, and the
degraded run must surface non-zero ``net.*`` telemetry (proof the loss
model actually engaged).  A second check reads the committed
``degraded_coverage`` entry of ``BENCH_perf.json`` and re-asserts the
same contract on the bench-scale numbers; a missing file or entry fails
the gate rather than skipping it.

Exit codes: 0 when every scheme holds the contract and the committed
entry is present and within it, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_PATH = REPO_ROOT / "BENCH_perf.json"
SCHEMES = ("CPVF", "FLOOR")
LOSS = 0.1
MIN_RATIO = 0.85


def check_bench_entry() -> bool:
    """Re-check of the committed bench-scale numbers."""
    if not BENCH_PATH.exists():
        print("network-smoke: bench FAIL (BENCH_perf.json missing)")
        return False
    rows = json.loads(BENCH_PATH.read_text()).get("degraded_coverage")
    if not rows:
        print(
            "network-smoke: bench FAIL (no degraded_coverage entry in "
            "BENCH_perf.json)"
        )
        return False
    ok = True
    for row in rows:
        ratio = row["coverage_ratio"]
        verdict = "ok" if ratio >= MIN_RATIO else "FAIL"
        print(
            f"network-smoke: bench {row['scheme']} {verdict} "
            f"(retained {ratio:.1%} at {row['loss']:.0%} loss)"
        )
        ok = ok and ratio >= MIN_RATIO
    return ok


def main() -> int:
    from repro.api import NetworkSpec, RunSpec, execute_run
    from repro.experiments import SMOKE_SCALE, make_scenario

    scenario = make_scenario(SMOKE_SCALE, seed=1)
    network = NetworkSpec(model="unreliable", loss=LOSS)
    failures = []
    for scheme in SCHEMES:
        try:
            perfect = execute_run(RunSpec(scenario=scenario, scheme=scheme))
            degraded = execute_run(
                RunSpec(
                    scenario=scenario,
                    scheme=scheme,
                    network=network,
                    profile=True,
                )
            )
        except Exception as exc:  # noqa: BLE001 - the gate reports, CI fails
            print(f"network-smoke: {scheme} CRASH ({exc!r})")
            failures.append(scheme)
            continue
        ratio = (
            degraded.coverage / perfect.coverage if perfect.coverage > 0 else 0.0
        )
        counters = (
            degraded.telemetry.counters if degraded.telemetry is not None else {}
        )
        dropped = counters.get("net.dropped", 0)
        ok = ratio >= MIN_RATIO and dropped > 0
        verdict = "ok" if ok else "FAIL"
        print(
            f"network-smoke: {scheme} {verdict} "
            f"(perfect={perfect.coverage:.3f} degraded={degraded.coverage:.3f} "
            f"retained={ratio:.1%} dropped={dropped} "
            f"retries={counters.get('net.retries', 0)} "
            f"timeouts={counters.get('net.timeouts', 0)})"
        )
        if not ok:
            failures.append(scheme)
    if not check_bench_entry():
        failures.append("bench-entry")
    if failures:
        print(f"network-smoke: FAILED for {failures}")
        return 1
    print(f"network-smoke: both schemes retained >= {MIN_RATIO:.0%} at 10% loss")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
