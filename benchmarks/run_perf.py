#!/usr/bin/env python
"""Regenerate the repo-root ``BENCH_perf.json`` perf trajectory.

Usage (from the repo root)::

    python benchmarks/run_perf.py                      # full suite
    python benchmarks/run_perf.py --only cpvf_period   # one entry only
    python benchmarks/run_perf.py --only cpvf_period --n 2000 10000
    python benchmarks/run_perf.py --only cpvf_period --n 100000
    python benchmarks/run_perf.py --list               # entry names

Runs the spatial-subsystem benchmarks (neighbor-table build, CPVF
periods, coverage re-measurement) plus the sweep-throughput,
scenario-generation, batched-CPVF and FLOOR-period entries, asserting fast-path/seed
parity (or batched/sequential convergence) while timing, and writes the
results next to this repository's README so future PRs can track the
perf trajectory.

``--only ENTRY [ENTRY ...]`` regenerates a subset of entries and merges
them into the existing ``BENCH_perf.json`` — the untouched entries are
preserved verbatim, so one noisy row can be re-measured without paying
for the whole suite.  ``--n N [N ...]`` overrides the population sizes
of the per-population entries (``neighbor_table``, ``cpvf_period``,
``coverage``); without it, ``cpvf_period`` runs the classic sizes
(100/500/1000, seed vs batched) plus the scale rows with a phase
breakdown (2000/5000/10000, seed vs batched).  Sizes beyond 20000
(e.g. ``--n 100000``) skip the seed algorithm (``seed_ms`` is null) and
grow the field with sqrt(n) so density matches the n = 10^4 row.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.perfbench import PERF_ENTRIES, run_perf_suite  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_perf.json"


def _merge_entry(old, new):
    """Merge regenerated rows into a committed entry, row by row.

    Per-population entries are lists of row dicts keyed by
    ``(n, layout, moved_per_round)``; a partial regeneration
    (``--only ... --n ...``) replaces only the re-measured rows and keeps
    the other committed rows, so re-running one noisy row cannot drop
    its siblings.  Entries that are not keyed row lists are replaced
    wholesale.
    """
    def row_key(row):
        return (row["n"], row.get("layout", ""), row.get("moved_per_round", 0))

    if not (
        isinstance(old, list)
        and isinstance(new, list)
        and all(isinstance(r, dict) and "n" in r for r in old + new)
    ):
        return new
    rows = {row_key(row): row for row in old}
    rows.update({row_key(row): row for row in new})
    return [rows[key] for key in sorted(rows)]


def _print_results(results: dict) -> None:
    for section in ("neighbor_table", "cpvf_period", "coverage"):
        for row in results.get(section, ()):
            layout = f" {row['layout']}" if "layout" in row else ""
            extra = ""
            if row.get("phases_ms"):
                top = max(row["phases_ms"], key=row["phases_ms"].get)
                extra += f" [top phase {top}={row['phases_ms'][top]:.1f} ms]"
            # seed_ms / speedup are None on rows too large to run the
            # seed algorithm at all (n > 20000).
            if row.get("seed_ms") is None:
                seed_part = "seed=skipped"
            else:
                seed_part = (
                    f"seed={row['seed_ms']:.2f} ms"
                )
            speedup_part = (
                ""
                if row.get("speedup") is None
                else f" ({row['speedup']:.1f}x)"
            )
            if "moved_per_round" in row:
                layout += f" moved={row['moved_per_round']}"
            if "batched_ms" in row:
                timing = f"batched={row['batched_ms']:.2f} ms"
            else:
                timing = f"fast={row['fast_ms']:.2f} ms"
            print(
                f"{section}{layout} n={row['n']}: "
                f"{seed_part} {timing}{speedup_part}{extra}"
            )
    for row in results.get("telemetry_overhead", ()):
        print(
            f"telemetry_overhead n={row['n']}: "
            f"untraced={row['untraced_ms']:.2f} ms "
            f"traced={row['traced_ms']:.2f} ms "
            f"(+{row['overhead_pct']:.1f}%)"
        )
    for key in ("floor_period_parent", "floor_period"):
        for row in results.get(key, ()):
            top = max(row["phases_ms"], key=row["phases_ms"].get)
            print(
                f"{key} {row['layout']} n={row['n']}: "
                f"{row['period_ms']:.1f} ms/period "
                f"peak={row['peak_rss_mb']:.1f} MB "
                f"[top phase {top}={row['phases_ms'][top]:.1f} ms]"
            )
    for row in results.get("cpvf_convergence", ()):
        print(
            f"cpvf_convergence {row['scenario']} n={row['n']}: "
            f"sequential={row['sequential_coverage']:.4f} "
            f"batched={row['batched_coverage']:.4f} "
            f"(gap {row['abs_gap']:.4f})"
        )
    for row in results.get("sweep_throughput", ()):
        print(
            f"sweep_throughput runs={row['runs']}: "
            f"serial={row['seed_ms']:.0f} ms jobs={row['jobs']}"
            f"={row['fast_ms']:.0f} ms ({row['speedup']:.1f}x)"
        )
    for row in results.get("sweep_service", ()):
        print(
            f"sweep_service clients={row['clients']} "
            f"cells={row['cells_requested']} "
            f"(unique={row['unique_cells']}): "
            f"cold={row['cold_runs_per_s']:.1f} runs/s "
            f"(hit rate {row['cold_hit_rate']:.0%}) "
            f"warm={row['warm_runs_per_s']:.1f} runs/s "
            f"(hit rate {row['warm_hit_rate']:.0%})"
        )
    for row in results.get("scenario_generation", ()):
        print(
            f"scenario_generation {row['layout']} @ {row['size']:.0f} m: "
            f"{row['gen_ms']:.1f} ms/scenario "
            f"({row['scenarios_per_s']:.0f}/s)"
        )
    for row in results.get("lifecycle_recovery", ()):
        ttr = row["time_to_recover"]
        print(
            f"lifecycle_recovery {row['scheme']} n={row['n']}: "
            f"run={row['run_ms']:.0f} ms "
            f"recovery={row['recovery_ratio']:.1%} "
            f"t-recover={'-' if ttr is None else ttr} "
            f"extra={row['extra_distance']:.0f} m"
        )
    for row in results.get("degraded_coverage", ()):
        print(
            f"degraded_coverage {row['scheme']} n={row['n']} "
            f"loss={row['loss']:.0%}: run={row['run_ms']:.0f} ms "
            f"retained={row['coverage_ratio']:.1%} "
            f"overhead={row['message_overhead']:.2f}x "
            f"(dropped={row['net_dropped']} retries={row['net_retries']} "
            f"timeouts={row['net_timeouts']})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate (parts of) BENCH_perf.json"
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="ENTRY",
        default=None,
        help="regenerate only these entries and merge into the existing file",
    )
    parser.add_argument(
        "--n",
        nargs="+",
        type=int,
        metavar="N",
        default=None,
        help="population sizes for the per-population entries",
    )
    parser.add_argument(
        "--seed", type=int, default=3, help="benchmark seed (default 3)"
    )
    parser.add_argument(
        "--list", action="store_true", help="list entry names and exit"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in PERF_ENTRIES:
            print(name)
        return 0

    results = run_perf_suite(ns=args.n, seed=args.seed, only=args.only)
    if args.only and OUT_PATH.exists():
        merged = json.loads(OUT_PATH.read_text())
        for key, value in results.items():
            merged[key] = _merge_entry(merged.get(key), value)
        results = merged
    results["python"] = platform.python_version()
    results["machine"] = platform.machine()
    # Host metadata: timings are only comparable across PRs measured on
    # the same class of machine, so pin what the numbers were taken on.
    results["host"] = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    _print_results(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
