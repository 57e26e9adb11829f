"""RunSpec/SweepSpec integration of the serializable NetworkSpec."""

import json

from repro.api import NetworkSpec, RunSpec, ScenarioSpec, SweepSpec


def small_spec(**overrides):
    scenario = ScenarioSpec(
        field_size=300.0,
        sensor_count=12,
        duration=20.0,
        coverage_resolution=15.0,
        seed=2,
    )
    defaults = dict(scenario=scenario, scheme="CPVF")
    defaults.update(overrides)
    return RunSpec(**defaults)


DEGRADED = NetworkSpec(model="unreliable", loss=0.1, staleness=5)


class TestSerialization:
    def test_round_trip_with_network(self):
        spec = small_spec(network=DEGRADED)
        reparsed = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reparsed == spec
        assert reparsed.network == DEGRADED

    def test_round_trip_without_network(self):
        spec = small_spec()
        payload = spec.to_dict()
        assert payload["network"] is None
        assert RunSpec.from_dict(payload) == spec

    def test_legacy_payload_without_network_key_loads(self):
        payload = small_spec().to_dict()
        del payload["network"]
        assert RunSpec.from_dict(payload) == small_spec()


class TestFingerprint:
    def test_unset_and_structural_specs_share_the_default_fingerprint(self):
        base = small_spec().fingerprint()
        assert small_spec(network=NetworkSpec()).fingerprint() == base
        assert (
            small_spec(network=NetworkSpec(model="unreliable")).fingerprint()
            == base
        )

    def test_default_fingerprint_is_pinned(self):
        """The structural-mode identity: attaching no (or a structural)
        network spec must never move this digest, so a warm run store
        written before the network backend existed keeps serving these
        runs.  Re-pinned once, for spec schema 2 (the default CPVF mode
        became batched); schema 1 gave 9acc53ff17501fb579d69ee069be0354f72b9b8e."""
        assert (
            small_spec().fingerprint()
            == "151028ed21247f3a27520b7bde4233bb64a7597e"
        )

    def test_degraded_spec_moves_the_fingerprint(self):
        base = small_spec().fingerprint()
        degraded = small_spec(network=DEGRADED).fingerprint()
        assert degraded != base
        assert (
            small_spec(
                network=NetworkSpec(model="unreliable", loss=0.2, staleness=5)
            ).fingerprint()
            != degraded
        )

    def test_retry_limit_is_identity_when_degraded(self):
        a = small_spec(
            network=NetworkSpec(model="unreliable", loss=0.1, retry_limit=1)
        )
        b = small_spec(
            network=NetworkSpec(model="unreliable", loss=0.1, retry_limit=5)
        )
        assert a.fingerprint() != b.fingerprint()

    def test_degraded_fingerprint_round_trips(self):
        spec = small_spec(network=DEGRADED)
        reparsed = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reparsed.fingerprint() == spec.fingerprint()


class TestSweepGrid:
    def test_grid_threads_network_into_every_run(self):
        scenario = ScenarioSpec(
            field_size=300.0, sensor_count=12, duration=20.0, seed=2
        )
        sweep = SweepSpec.grid(
            "degraded",
            scenario,
            schemes=("CPVF", "FLOOR"),
            axes={"communication_range": [40.0, 60.0]},
            network=DEGRADED,
        )
        assert len(sweep.runs) == 4
        assert all(run.network == DEGRADED for run in sweep.runs)

    def test_grid_default_leaves_network_unset(self):
        scenario = ScenarioSpec(
            field_size=300.0, sensor_count=12, duration=20.0, seed=2
        )
        sweep = SweepSpec.grid("plain", scenario, schemes=("CPVF",), axes={})
        assert all(run.network is None for run in sweep.runs)
