"""The content-addressed run store: layout, round-trips, GC."""

import json

import pytest

from repro.api import RunSpec, ScenarioSpec, execute_run, run_fingerprint
from repro.service import GCReport, RunStore, StoreStats


def tiny_spec(**overrides):
    scenario_kwargs = dict(
        field_size=250.0,
        sensor_count=10,
        duration=12.0,
        coverage_resolution=25.0,
        seed=3,
    )
    scenario_kwargs.update(overrides.pop("scenario_overrides", {}))
    defaults = dict(scenario=ScenarioSpec(**scenario_kwargs), scheme="CPVF")
    defaults.update(overrides)
    return RunSpec(**defaults)


@pytest.fixture(scope="module")
def record():
    return execute_run(tiny_spec())


class TestRoundTrip:
    def test_put_then_get_returns_equal_record(self, tmp_path, record):
        store = RunStore(tmp_path)
        fingerprint = store.put(record)
        assert fingerprint == record.spec.fingerprint()
        assert store.get(record.spec) == record

    def test_layout_is_version_and_shard_partitioned(self, tmp_path, record):
        store = RunStore(tmp_path)
        fp = store.put(record)
        path = store.path_for(fp)
        assert path.exists()
        assert path == tmp_path / f"v{store.schema_version}" / fp[:2] / f"{fp}.json"

    def test_contains_accepts_spec_or_fingerprint(self, tmp_path, record):
        store = RunStore(tmp_path)
        assert record.spec not in store
        fp = store.put(record)
        assert record.spec in store
        assert fp in store
        assert len(store) == 1
        assert list(store.fingerprints()) == [fp]

    def test_hit_rebinds_the_requesting_spec(self, tmp_path, record):
        """Tags are bookkeeping: a differently-tagged client must get the
        cached record back carrying *its* spec, as execute_run would."""
        store = RunStore(tmp_path)
        store.put(record)
        tagged = tiny_spec(tags={"client": "other"})
        hit = store.get(tagged)
        assert hit.spec == tagged
        assert hit.coverage == record.coverage

    def test_put_is_idempotent(self, tmp_path, record):
        store = RunStore(tmp_path)
        store.put(record)
        store.put(record)
        assert len(store) == 1
        assert store.get(record.spec) == record


class TestMisses:
    def test_load_missing_is_none(self, tmp_path):
        assert RunStore(tmp_path).load("00" * 20) is None

    def test_torn_write_reads_as_miss(self, tmp_path, record):
        store = RunStore(tmp_path)
        fp = store.put(record)
        store.path_for(fp).write_text('{"schema": 1, "reco')
        assert store.load(fp) is None
        # The atomic put repairs the entry in place.
        store.put(record)
        assert store.get(record.spec) == record

    def test_schema_one_record_misses_after_the_bump(
        self, tmp_path, record, monkeypatch
    ):
        """Schema 1 records were computed under the old default CPVF mode.

        A default-mode spec has the same content under both schemas (the
        default ``mode`` is not part of it), so a warm store must not
        serve a record written by a schema-1 program."""
        import repro.api.specs as specs_module

        with monkeypatch.context() as patched:
            patched.setattr(specs_module, "SPEC_SCHEMA_VERSION", 1)
            old_fp = RunStore(tmp_path, schema_version=1).put(
                record, fingerprint=run_fingerprint(record.spec)
            )
        store = RunStore(tmp_path)
        assert store.schema_version == 2
        assert old_fp != record.spec.fingerprint()
        assert record.spec not in store
        assert store.get(record.spec) is None
        assert store.load(old_fp) is None
        assert len(store) == 0

    def test_other_schema_version_is_unreachable(self, tmp_path, record):
        RunStore(tmp_path, schema_version=0).put(record)
        store = RunStore(tmp_path)
        assert record.spec not in store
        assert store.get(record.spec) is None
        assert len(store) == 0


class TestMaintenance:
    def test_stats_split_live_from_stale(self, tmp_path, record):
        store = RunStore(tmp_path)
        store.put(record)
        RunStore(tmp_path, schema_version=0).put(record)
        stats = store.stats()
        assert isinstance(stats, StoreStats)
        assert stats.entries == 1
        assert stats.bytes > 0
        assert stats.stale_entries == 1
        assert stats.stale_bytes > 0
        assert json.dumps(stats.to_dict())

    def test_gc_reclaims_stale_versions_and_tmp_files(self, tmp_path, record):
        store = RunStore(tmp_path)
        fp = store.put(record)
        RunStore(tmp_path, schema_version=0).put(record)
        orphan = store.path_for(fp).parent / ".deadbeef.tmp"
        orphan.write_text("killed writer leftovers")

        dry = store.gc(dry_run=True)
        assert isinstance(dry, GCReport)
        assert dry.dry_run and dry.removed_files == 2
        assert orphan.exists()

        report = store.gc()
        assert report.removed_files == 2
        assert report.removed_bytes > 0
        assert report.kept_entries == 1
        assert not orphan.exists()
        assert not (tmp_path / "v0").exists()
        assert store.get(record.spec) == record

    def test_gc_on_empty_store_is_a_noop(self, tmp_path):
        report = RunStore(tmp_path / "nowhere").gc()
        assert report.removed_files == 0
        assert report.kept_entries == 0
