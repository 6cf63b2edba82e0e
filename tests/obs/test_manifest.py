"""Tests for repro.obs.manifest (provenance, fingerprints, ambience)."""

import json

import pytest

from repro._version import __version__
from repro.net.latency import LatencyMatrix
from repro.obs.manifest import (
    MANIFEST_ENV,
    MANIFEST_VERSION,
    RunManifest,
    build_manifest,
    current_manifest,
    fingerprint_matrix,
    manifest_scope,
    set_current_manifest,
)


@pytest.fixture(autouse=True)
def _clear_ambient():
    yield
    set_current_manifest(None)


class TestFingerprint:
    def test_stable_across_calls(self):
        matrix = LatencyMatrix.random_metric(20, seed=3)
        assert fingerprint_matrix(matrix) == fingerprint_matrix(matrix)

    def test_same_content_same_fingerprint(self):
        a = LatencyMatrix.random_metric(20, seed=3)
        b = LatencyMatrix.random_metric(20, seed=3)
        assert fingerprint_matrix(a) == fingerprint_matrix(b)

    def test_different_content_differs(self):
        a = LatencyMatrix.random_metric(20, seed=3)
        b = LatencyMatrix.random_metric(20, seed=4)
        assert fingerprint_matrix(a) != fingerprint_matrix(b)

    def test_format(self):
        fp = fingerprint_matrix(LatencyMatrix.random_metric(8, seed=0))
        assert len(fp) == 16
        int(fp, 16)  # hex

    def test_content_token_provider(self):
        from repro.datasets import planet_instance

        a = planet_instance(30, 4, seed=1).provider
        b = planet_instance(30, 4, seed=1).provider
        c = planet_instance(30, 4, seed=2).provider
        assert fingerprint_matrix(a) == fingerprint_matrix(b)
        assert fingerprint_matrix(a) != fingerprint_matrix(c)
        assert len(fingerprint_matrix(a)) == 16

    def test_opaque_provider_refused(self):
        with pytest.raises(TypeError):
            fingerprint_matrix(object())


class TestBuildManifest:
    def test_core_fields(self):
        matrix = LatencyMatrix.random_metric(10, seed=1)
        manifest = build_manifest(
            command="fig",
            config={"figure": "7"},
            seeds={"seed": 0},
            matrix=matrix,
        )
        assert manifest.command == "fig"
        assert manifest.config == {"figure": "7"}
        assert manifest.seeds == {"seed": 0}
        assert manifest.dataset_fingerprint == fingerprint_matrix(matrix)
        assert "python" in manifest.platform

    def test_volatile_autocaptured(self):
        manifest = build_manifest(command="x", workers=4)
        for key in ("created_at", "hostname", "pid", "argv"):
            assert key in manifest.volatile
        assert manifest.volatile["workers"] == 4

    def test_finalize_records_wall(self):
        manifest = build_manifest(command="x")
        manifest.finalize(wall_seconds=1.23456789, extra_fact="ok")
        assert manifest.volatile["wall_seconds"] == pytest.approx(1.234568)
        assert manifest.volatile["extra_fact"] == "ok"


class TestToDict:
    def test_deterministic_core_excludes_volatile(self, monkeypatch):
        monkeypatch.delenv(MANIFEST_ENV, raising=False)
        manifest = build_manifest(command="x", config={"a": 1})
        body = manifest.to_dict()
        assert "volatile" not in body
        assert body["manifest_version"] == MANIFEST_VERSION
        assert body["package_version"] == __version__
        json.dumps(body)  # JSON-able

    def test_two_builds_same_core(self, monkeypatch):
        monkeypatch.delenv(MANIFEST_ENV, raising=False)
        a = build_manifest(command="x", config={"a": 1}, seeds={"seed": 7})
        b = build_manifest(command="x", config={"a": 1}, seeds={"seed": 7})
        assert a.to_dict() == b.to_dict()

    def test_env_gates_volatile(self, monkeypatch):
        manifest = build_manifest(command="x")
        monkeypatch.setenv(MANIFEST_ENV, "full")
        assert "volatile" in manifest.to_dict()
        monkeypatch.setenv(MANIFEST_ENV, "")
        assert "volatile" not in manifest.to_dict()

    def test_explicit_override_beats_env(self, monkeypatch):
        manifest = build_manifest(command="x")
        monkeypatch.delenv(MANIFEST_ENV, raising=False)
        assert "volatile" in manifest.to_dict(include_volatile=True)
        monkeypatch.setenv(MANIFEST_ENV, "full")
        assert "volatile" not in manifest.to_dict(include_volatile=False)


class TestAmbientManifest:
    def test_none_by_default(self):
        assert current_manifest() is None

    def test_set_and_restore(self):
        manifest = RunManifest(command="x")
        assert set_current_manifest(manifest) is None
        assert current_manifest() is manifest
        assert set_current_manifest(None) is manifest
        assert current_manifest() is None

    def test_scope(self):
        manifest = RunManifest(command="x")
        with manifest_scope(manifest) as active:
            assert active is manifest
            assert current_manifest() is manifest
        assert current_manifest() is None

    def test_dataset_for_stamps_ambient(self):
        from repro.experiments import profile
        from repro.experiments.figures import dataset_for

        prof = profile("quick")
        manifest = RunManifest(command="fig")
        with manifest_scope(manifest):
            matrix = dataset_for(prof)
        assert manifest.dataset_fingerprint == fingerprint_matrix(matrix)
