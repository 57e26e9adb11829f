"""End-to-end contracts of the unreliable-network backend.

Three layers of protection:

* the **structural-mode identity** — runs without a network spec pin the
  exact coverage and message counts the seed produced, so the hardening
  hooks provably compile down to the old code path by default;
* the **degenerate parity** — an ``UnreliableNetwork`` with all knobs at
  zero must trace identically to the perfect network, draw for draw;
* the **degradation acceptance** — at 10% loss both paper schemes retain
  at least 85% of their perfect-network coverage and surface the
  timeout/retry counters through profiled telemetry.
"""

import pytest

from repro.api import NetworkSpec, RunSpec, execute_run
from repro.experiments import SMOKE_SCALE, make_scenario


def trajectory(record):
    return [
        (point.time, point.coverage, point.total_messages)
        for point in record.trace
    ]


class TestStructuralIdentity:
    """Pinned seed behavior: these numbers predate the network backend.

    If either value moves, a default-path run changed — the pluggable
    backend leaked into structural mode.  Regenerate only for a change
    that deliberately alters the paper reproduction itself.  The CPVF
    row was re-pinned once, when the default CPVF mode became batched
    (it was 0.81 and 7136 under the retired vectorized default).
    """

    @pytest.mark.parametrize(
        "scheme,coverage,total_messages",
        [("CPVF", 0.83, 4799), ("FLOOR", 0.49, 4807)],
    )
    def test_pinned_snapshot(self, scheme, coverage, total_messages):
        scenario = make_scenario(SMOKE_SCALE, seed=1)
        record = execute_run(RunSpec(scenario=scenario, scheme=scheme))
        assert record.coverage == pytest.approx(coverage, abs=1e-9)
        assert record.total_messages == total_messages


class TestDegenerateParity:
    @pytest.mark.parametrize("scheme", ["CPVF", "FLOOR"])
    def test_zero_knob_unreliable_equals_perfect(self, scheme):
        scenario = make_scenario(SMOKE_SCALE, seed=7)
        base = execute_run(
            RunSpec(scenario=scenario, scheme=scheme, trace_every=5)
        )
        degenerate = execute_run(
            RunSpec(
                scenario=scenario,
                scheme=scheme,
                trace_every=5,
                network=NetworkSpec(
                    model="unreliable", loss=0.0, latency=0, staleness=0
                ),
            )
        )
        assert trajectory(degenerate) == trajectory(base)
        assert degenerate.coverage == base.coverage
        assert degenerate.total_messages == base.total_messages


class TestDegradationAcceptance:
    @pytest.mark.parametrize("scheme", ["CPVF", "FLOOR"])
    def test_ten_percent_loss_retains_85_percent_coverage(self, scheme):
        scenario = make_scenario(SMOKE_SCALE, seed=1)
        perfect = execute_run(RunSpec(scenario=scenario, scheme=scheme))
        degraded = execute_run(
            RunSpec(
                scenario=scenario,
                scheme=scheme,
                network=NetworkSpec(model="unreliable", loss=0.1),
                profile=True,
            )
        )
        assert degraded.coverage >= 0.85 * perfect.coverage
        counters = degraded.telemetry.counters
        # The loss model engaged and its accounting reached telemetry.
        assert counters["net.dropped"] > 0
        assert counters["net.retries"] > 0
        # Retransmissions are charged: lossy runs never send fewer
        # connectivity-flood messages than the perfect run.
        assert counters["messages.total"] == degraded.total_messages

    def test_degraded_runs_are_reproducible(self):
        scenario = make_scenario(SMOKE_SCALE, seed=3)
        spec = RunSpec(
            scenario=scenario,
            scheme="CPVF",
            network=NetworkSpec(model="unreliable", loss=0.1, staleness=5),
        )
        assert execute_run(spec) == execute_run(spec)

    def test_latency_defers_but_does_not_wedge(self):
        scenario = make_scenario(SMOKE_SCALE, seed=3)
        record = execute_run(
            RunSpec(
                scenario=scenario,
                scheme="FLOOR",
                network=NetworkSpec(model="unreliable", latency=2),
                profile=True,
            )
        )
        assert record.coverage > 0.0
        assert record.telemetry.counters["net.delayed"] > 0
