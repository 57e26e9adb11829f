"""The benchmark's own tests: tiny workloads, span arithmetic, hook
restoration and the names ``BENCHMARK.json`` publishes.

Run from the repository root::

    python3 -m pytest deploybench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from deploybench import measure, run, trace
from deploybench.trace import Span, Tracer, layer_hooks, self_times
from deploybench.workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Tiny-scale workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    result = measure.check_only(name, seed=1, tiny=True)
    assert result["problems"] == []
    assert (result["attempted"], result["failed"]) == (measure.CHECK_RUNS, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_measure_reports_every_end_to_end_metric(name):
    result = measure.measure(name, seed=3, seconds=0.0, trace=False, tiny=True)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {metric for metric, _ in END_TO_END}
    assert all(value > 0 for value in result["metrics"].values())


def test_checks_catch_a_disconnected_or_escaped_or_changed_record():
    wl = WORKLOADS["fig3a-cpvf"]
    spec = wl.build(1, tiny=True)
    record = measure.execute_run(spec)
    assert measure.check_record(wl, spec, record) == []
    size = spec.scenario.field_size
    bad = dataclasses.replace(
        record,
        connected=False,
        final_positions=((size + 1.0, 0.0),) + record.final_positions[1:],
    )
    problems = measure.check_record(
        wl, spec, bad, reference=measure.comparable(record)
    )
    assert len(problems) == 3


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_exact_on_a_synthetic_tree():
    # root [0, 16]: a [1, 5] holding a1 [2, 3]; b [6, 10] and c [8, 12]
    # overlap, so together they cover [6, 12] once.
    spans = [
        Span(0, None, "root", 0.0, 16.0),
        Span(1, 0, "a", 1.0, 5.0),
        Span(2, 1, "a1", 2.0, 3.0),
        Span(3, 0, "b", 6.0, 10.0),
        Span(4, 0, "c", 8.0, 12.0),
        # A child that outlives its parent counts only inside the parent.
        Span(5, 2, "late", 2.5, 4.0),
    ]
    assert self_times(spans) == {
        0: 16.0 - 4.0 - 6.0,
        1: 4.0 - 1.0,
        2: 1.0 - 0.5,
        3: 4.0,
        4: 4.0,
        5: 1.5,
    }


def test_tracer_links_nested_calls_and_totals_self_time():
    tracer = Tracer(run_id="t")

    def inner():
        return 7

    def outer():
        return tracer.call("inner", inner) + 1

    assert tracer.call("outer", outer) == 8
    outer_span, inner_span = tracer.spans
    assert (outer_span.parent, inner_span.parent) == (None, outer_span.span_id)
    totals = tracer.layer_totals()
    assert totals["inner"][0] == totals["outer"][0] == 1
    assert totals["outer"][1] == pytest.approx(
        (outer_span.end - outer_span.start) - (inner_span.end - inner_span.start)
    )


# ----------------------------------------------------------------------
# Hook installation
# ----------------------------------------------------------------------
def _installed_objects():
    return [vars(h.owner)[h.attr] for h in layer_hooks()]


def test_traced_run_leaves_no_wrapper_installed(tmp_path):
    before = _installed_objects()
    result = measure.measure(
        "churn-lossy", seed=1, seconds=0.0, trace=True, tiny=True,
        out_dir=tmp_path,
    )
    assert result["failed"] == 0
    after = _installed_objects()
    assert all(a is b for a, b in zip(before, after))
    assert list(tmp_path.glob("spans-*.jsonl.gz"))


def test_hooks_are_restored_when_the_run_raises():
    before = _installed_objects()
    tracer = Tracer(run_id="boom")
    with pytest.raises(RuntimeError):
        with tracer.installed(layer_hooks()):
            assert _installed_objects()[0] is not before[0]
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _installed_objects()))


def test_every_hook_span_is_a_reported_layer():
    assert {h.span for h in layer_hooks()} == set(trace.SPAN_NAMES)


def test_message_types_match_the_program():
    from repro.network import MessageType

    assert trace.MESSAGE_TYPES == tuple(m.value for m in MessageType)


# ----------------------------------------------------------------------
# Names published in BENCHMARK.json
# ----------------------------------------------------------------------
def _printed_result(monkeypatch, capsys, trace_flag, tmp_path):
    def in_process(request):
        if request.get("check_only"):
            return measure.check_only(request["workload"], request["seed"], tiny=True)
        return measure.measure(
            request["workload"], request["seed"], 0.0, request["trace"],
            tiny=True, out_dir=tmp_path,
        )

    monkeypatch.setattr(run, "run_child", in_process)
    assert run.main(["--workload", "fig3a-cpvf", "--trace", str(trace_flag)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(
    monkeypatch, capsys, tmp_path, trace_flag, section
):
    printed = _printed_result(monkeypatch, capsys, trace_flag, tmp_path)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True
    published = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == published


def test_workload_names_equal_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "deploybench", tmp_path / "deploybench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "deploybench/run.py", "--workload", "fig3a-cpvf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
