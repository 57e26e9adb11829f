"""Whole-run deployment benchmark: one command, every metric, checked.

Run from the repository root::

    python3 deploybench/run.py --workload fig3a-cpvf --seed 1 --seconds 24 --trace 0
    python3 deploybench/run.py --held-out-seed 1001     # every workload

Each workload is measured in its own child process
(:mod:`deploybench.measure`), one after the other, so its peak RSS is its
own.  The report lists every metric by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` reports the per-layer metrics
of a traced run instead of the end-to-end ones.  ``--held-out-seed`` also
runs every selected workload's output checks on a second seed.

Exits non-zero, without a result line, when the program under test is
missing or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: A single-workload run of this command must end within 180 s; leave
#: room to report.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # numpy's BLAS pools: one thread, so an idle pool thread spinning on a
    # shared CPU adds no noise (the runs are single-threaded anyway).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(request: Dict[str, Any]) -> Dict[str, Any]:
    """Measure one workload in a fresh process; returns its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "deploybench.measure", json.dumps(request)],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{request['workload']}: no result within {CHILD_TIMEOUT_S} s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{request['workload']}: child exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def _metric_units(trace: bool) -> List[tuple]:
    from deploybench.trace import per_layer_names
    from deploybench.workloads import END_TO_END

    return per_layer_names() if trace else list(END_TO_END)


def _report(name: str, seed: int, result: Dict[str, Any], units) -> None:
    info = result["info"]
    failed_frac = result["failed"] / max(1, result["attempted"])
    samples = ""
    if "run_samples" in info:
        samples = (
            f"  (medians: run_s n={info['run_samples']} "
            f"in {info['run_range_s'][0]:.3f}-{info['run_range_s'][1]:.3f} s, "
            f"setup_s n={info['setup_samples']})"
        )
    print(f"== {name}  seed={seed}{samples}")
    for metric, unit in units:
        value = result["metrics"].get(metric)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {metric:<40} {shown:>14} {unit}")
    if "messages_per_node" in info:
        print(
            f"  {'messages_per_node':<40} {info['messages_per_node']:>14.6g}"
            " count/node"
        )
    print(
        f"  {'failed_frac':<40} {failed_frac:>14.6g} "
        f"({result['failed']}/{result['attempted']} runs)"
    )
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: every workload)",
    )
    parser.add_argument("--seed", type=int, default=1, help="scenario seed")
    parser.add_argument(
        "--seconds", type=float, default=24.0,
        help="time budget for the timed runs of each workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--held-out-seed", type=int, default=None,
        help="also run every output check on this seed",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator package is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from deploybench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    units = _metric_units(bool(args.trace))

    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            result = run_child({
                "workload": name, "seed": args.seed,
                "seconds": args.seconds, "trace": bool(args.trace),
            })
            _report(name, args.seed, result, units)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}/"
            for metric, unit in units:
                if metric in result["metrics"]:
                    metrics[prefix + metric] = {
                        "value": result["metrics"][metric], "unit": unit,
                    }
        if args.held_out_seed is not None:
            for name in names:
                result = run_child({
                    "workload": name, "seed": args.held_out_seed,
                    "check_only": True,
                })
                _report(name, args.held_out_seed, result, [])
                attempted += result["attempted"]
                failed += result["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    expected = len(names) * len(units)
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == expected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
