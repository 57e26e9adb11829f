"""Run every experiment and print the paper's tables and figures.

This module is the command-line face of the reproduction.  Every
experiment is a declarative :class:`~repro.api.specs.SweepSpec` executed
through the process-sharded :class:`~repro.api.sweep.SweepRunner`::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --scale bench --jobs 8
    python -m repro.experiments.runner --scale full --only fig3 fig8 \\
        --trace-every 1 --jobs 8 --out results/

``--jobs N`` shards the sweep's independent runs over ``N`` worker
processes; records are merged deterministically, so ``--jobs 8`` output is
identical to the serial run.  ``--trace-every K`` records a metrics trace
every ``K`` periods (Fig 3/8 render it as a coverage time series, and the
traces are kept in the records).  ``--out DIR`` persists one JSON artifact
per experiment (the full typed records plus the formatted report); load
them back with :meth:`repro.api.RunRecord.from_dict`::

    import json
    from repro.api import RunRecord

    payload = json.load(open("results/fig3.json"))
    records = [RunRecord.from_dict(r) for r in payload["records"]]

At full scale a complete sweep takes hours; the default ``bench`` scale
keeps the sweep's shape (relative ordering of schemes, crossover points)
while finishing on a laptop.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import RunRecord, SweepRunner, SweepSpec, thaw_params
from ..core import CPVF_MODES
from ..obs import TelemetrySummary
from ..obs.report import format_summary, write_record_trace
from .common import BENCH_SCALE, FULL_SCALE, SMOKE_SCALE, ExperimentScale
from .degradation import format_degradation, rows_degradation, sweep_degradation
from .fig3 import format_fig3_records, sweep_fig3
from .fig8 import format_fig8_records, sweep_fig8
from .fig9 import format_fig9, rows_fig9, sweep_fig9
from .fig10 import format_fig10, rows_fig10, sweep_fig10
from .fig11 import format_fig11, rows_fig11, sweep_fig11
from .fig12 import format_fig12, rows_fig12, sweep_fig12
from .fig13 import format_fig13, summary_fig13, sweep_fig13
from .gallery import format_gallery, rows_gallery, sweep_gallery
from .lifecycle import format_lifecycle, rows_lifecycle, sweep_lifecycle
from .table1 import format_table1, rows_table1, sweep_table1

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment", "run_experiment_records", "main"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: a sweep builder plus a record presenter."""

    name: str
    #: ``(scale, seed, trace_every) -> SweepSpec``.
    build: Callable[[ExperimentScale, int, Optional[int]], SweepSpec]
    #: ``records -> formatted report``.
    present: Callable[[Sequence[RunRecord]], str]


#: Experiment name -> declarative sweep + presenter.
EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            "fig3",
            lambda scale, seed, trace: sweep_fig3(scale, seed=seed, trace_every=trace),
            format_fig3_records,
        ),
        Experiment(
            "fig8",
            lambda scale, seed, trace: sweep_fig8(scale, seed=seed, trace_every=trace),
            format_fig8_records,
        ),
        Experiment(
            "fig9",
            lambda scale, seed, trace: sweep_fig9(scale, seed=seed, trace_every=trace),
            lambda records: format_fig9(rows_fig9(records)),
        ),
        Experiment(
            "fig10",
            lambda scale, seed, trace: sweep_fig10(scale, seed=seed, trace_every=trace),
            lambda records: format_fig10(rows_fig10(records)),
        ),
        Experiment(
            "fig11",
            lambda scale, seed, trace: sweep_fig11(scale, seed=seed, trace_every=trace),
            lambda records: format_fig11(rows_fig11(records)),
        ),
        Experiment(
            "fig12",
            lambda scale, seed, trace: sweep_fig12(scale, seed=seed, trace_every=trace),
            lambda records: format_fig12(rows_fig12(records)),
        ),
        Experiment(
            "fig13",
            lambda scale, seed, trace: sweep_fig13(scale, seed=seed, trace_every=trace),
            lambda records: format_fig13(summary_fig13(records)),
        ),
        Experiment(
            "table1",
            lambda scale, seed, trace: sweep_table1(scale, seed=seed, trace_every=trace),
            lambda records: format_table1(rows_table1(records)),
        ),
        Experiment(
            "gallery",
            lambda scale, seed, trace: sweep_gallery(scale, seed=seed, trace_every=trace),
            lambda records: format_gallery(rows_gallery(records)),
        ),
        Experiment(
            "lifecycle",
            lambda scale, seed, trace: sweep_lifecycle(scale, seed=seed, trace_every=trace),
            lambda records: format_lifecycle(rows_lifecycle(records)),
        ),
        Experiment(
            "degradation",
            lambda scale, seed, trace: sweep_degradation(scale, seed=seed, trace_every=trace),
            lambda records: format_degradation(rows_degradation(records)),
        ),
    )
}

_SCALES = {"full": FULL_SCALE, "bench": BENCH_SCALE, "smoke": SMOKE_SCALE}


def run_experiment_records(
    name: str,
    scale: ExperimentScale,
    jobs: int = 1,
    seed: int = 1,
    trace_every: Optional[int] = None,
    cpvf_mode: Optional[str] = None,
    store=None,
    resume: bool = False,
    profile: bool = False,
) -> Tuple[List[RunRecord], str]:
    """Run one experiment; return its records and formatted report.

    ``cpvf_mode`` selects the CPVF execution strategy (``batched``, the
    default, or the seed-exact ``sequential``; see
    ``docs/performance.md``) for every CPVF run in the sweep; other
    schemes are untouched.

    ``profile`` turns on telemetry for every run: each record carries a
    :class:`~repro.obs.TelemetrySummary` (phase times + counters), which
    ``main`` aggregates into a per-experiment breakdown.

    ``store`` (a path or :class:`~repro.service.store.RunStore`) binds the
    sweep to a content-addressed run store: completed cells are written
    through as they finish, and with ``resume=True`` cells already in the
    store — from a killed run of this experiment, or from *any* other
    sweep sharing cells — are served without recompute.  See
    ``docs/service.md``.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    experiment = EXPERIMENTS[name]
    sweep = experiment.build(scale, seed, trace_every)
    if cpvf_mode is not None:
        if cpvf_mode not in CPVF_MODES:
            raise ValueError(
                f"unknown CPVF mode {cpvf_mode!r}; choose from {list(CPVF_MODES)}"
            )
        sweep = SweepSpec(
            name=sweep.name,
            runs=tuple(
                run.replace(
                    scheme_params={
                        **thaw_params(run.scheme_params), "mode": cpvf_mode,
                    }
                )
                if run.scheme == "CPVF"
                else run
                for run in sweep.runs
            ),
        )
    if profile:
        sweep = SweepSpec(
            name=sweep.name,
            runs=tuple(run.replace(profile=True) for run in sweep.runs),
        )
    runner = SweepRunner(jobs=jobs, store=store, reuse=resume)
    records = runner.run(sweep)
    if store is not None and runner.last_cache is not None:
        cache = runner.last_cache
        print(
            f"[{name}: {cache['hits']}/{cache['cells']} cells served from "
            f"the store, {cache['computed']} computed]",
            file=sys.stderr,
        )
    return records, experiment.present(records)


def run_experiment(
    name: str,
    scale: ExperimentScale,
    jobs: int = 1,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> str:
    """Run one experiment by name and return its formatted report."""
    _, report = run_experiment_records(
        name, scale, jobs=jobs, seed=seed, trace_every=trace_every
    )
    return report


def profile_summary(records: Sequence[RunRecord]) -> TelemetrySummary:
    """The merged telemetry of every profiled record in a sweep."""
    merged = TelemetrySummary()
    for record in records:
        if record.telemetry is not None:
            merged = merged.merge(record.telemetry)
    return merged


def _write_artifact(
    out_dir: Path,
    name: str,
    scale_name: str,
    jobs: int,
    seed: int,
    trace_every: Optional[int],
    records: Sequence[RunRecord],
    report: str,
) -> Path:
    """Persist one experiment's records + report as a JSON artifact."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    payload = {
        "experiment": name,
        "scale": scale_name,
        "jobs": jobs,
        "seed": seed,
        "trace_every": trace_every,
        "records": [record.to_dict() for record in records],
        "report": report,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(argv: Sequence[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="bench",
        help="experiment scale: smoke (seconds), bench (minutes), full (paper)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of experiments to run (default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to shard each sweep over (default: 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="base random seed (per-repetition seeds are spawned from it)",
    )
    parser.add_argument(
        "--trace-every",
        type=int,
        default=None,
        metavar="K",
        help="record a metrics trace every K periods (1 = per-period series)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one JSON artifact per experiment (records + report)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "content-addressed run store: completed cells are persisted "
            "as they finish (see docs/service.md)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve cells already present in --store without recompute "
            "(resume a killed sweep / reuse overlapping sweeps)"
        ),
    )
    parser.add_argument(
        "--cpvf-mode",
        choices=list(CPVF_MODES),
        default=None,
        help=(
            "CPVF execution strategy for every CPVF run: batched (the "
            "scheme's default) or the seed-exact sequential reference "
            "(see docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect telemetry for every run and print the aggregated "
            "per-phase time breakdown after each experiment (with --out, "
            "also export a <name>_trace.jsonl readable by "
            "`python -m repro.obs report`)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiments and exit",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.trace_every is not None and args.trace_every < 1:
        parser.error("--trace-every must be >= 1")
    if args.resume and args.store is None:
        parser.error("--resume requires --store DIR")

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    scale = _SCALES[args.scale]
    names: List[str] = args.only if args.only else sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments {unknown}; choose from {sorted(EXPERIMENTS)}"
        )
    for name in names:
        records, report = run_experiment_records(
            name,
            scale,
            jobs=args.jobs,
            seed=args.seed,
            trace_every=args.trace_every,
            cpvf_mode=args.cpvf_mode,
            store=args.store,
            resume=args.resume,
            profile=args.profile,
        )
        print(report)
        if args.profile:
            print()
            print(
                format_summary(
                    profile_summary(records), title=f"{name}: profile"
                )
            )
        if args.out is not None:
            path = _write_artifact(
                args.out,
                name,
                args.scale,
                args.jobs,
                args.seed,
                args.trace_every,
                records,
                report,
            )
            print(f"[wrote {path}]")
            if args.profile:
                trace_path = args.out / f"{name}_trace.jsonl"
                with open(trace_path, "w", encoding="utf-8") as handle:
                    write_record_trace(handle, records)
                print(f"[wrote {trace_path}]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
