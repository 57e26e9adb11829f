"""The CI smoke gates fail, rather than skip, when their reference is missing.

Each gate script compares a fresh measurement against a committed entry
of ``BENCH_perf.json``.  A gate whose reference has gone missing must
report failure: a silently skipped gate passes CI while checking nothing.
The scripts are loaded as modules and pointed at an empty directory.
"""

import importlib.util
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_bench(tmp_path, payload):
    (tmp_path / "BENCH_perf.json").write_text(payload)


@pytest.mark.parametrize("payload", [None, "{}"])
def test_perf_smoke_fails_without_reference(tmp_path, monkeypatch, payload):
    module = _load("perf_smoke")
    if payload is not None:
        _write_bench(tmp_path, payload)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    assert module.main() == 1


def test_perf_smoke_coverage_check_fails_without_all_moved_row():
    module = _load("perf_smoke")
    light_rows = {"coverage": [{"n": 1000, "moved_per_round": 20, "fast_ms": 1.0}]}
    assert module.check_coverage(light_rows) is False


@pytest.mark.parametrize("payload", [None, "{}"])
def test_network_smoke_bench_check_fails_without_reference(
    tmp_path, monkeypatch, payload
):
    module = _load("network_smoke")
    if payload is not None:
        _write_bench(tmp_path, payload)
    monkeypatch.setattr(module, "BENCH_PATH", tmp_path / "BENCH_perf.json")
    assert module.check_bench_entry() is False


@pytest.mark.parametrize("payload", [None, "{}"])
def test_obs_smoke_overhead_fails_without_reference(
    tmp_path, monkeypatch, payload
):
    module = _load("obs_smoke")
    if payload is not None:
        _write_bench(tmp_path, payload)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    assert module.check_overhead() != []
