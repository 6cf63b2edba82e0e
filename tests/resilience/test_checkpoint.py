"""Checkpoints: atomic write, validation, pruning, fallback on damage."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.resilience import (
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    state_digest,
    write_checkpoint,
)
from tests.fsync_log import FsyncLog


def sample_state(n):
    return {"schema": 1, "value": n, "d": float(n).hex()}


class TestWriteLoad:
    def test_roundtrip(self, tmp_path):
        path = write_checkpoint(tmp_path, 12, sample_state(12))
        checkpoint = load_checkpoint(path)
        assert checkpoint.seq == 12
        assert checkpoint.state == sample_state(12)

    def test_digest_matches_state_digest(self, tmp_path):
        path = write_checkpoint(tmp_path, 3, sample_state(3))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["digest"] == state_digest(sample_state(3))

    def test_validation_rejects_bad_args(self, tmp_path):
        with pytest.raises(CheckpointError):
            write_checkpoint(tmp_path, -1, sample_state(0))
        with pytest.raises(CheckpointError):
            write_checkpoint(tmp_path, 1, sample_state(0), keep=0)

    def test_unknown_schema_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path, 1, sample_state(1))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema_version"] = 99
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_tampered_state_fails_digest(self, tmp_path):
        path = write_checkpoint(tmp_path, 1, sample_state(1))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["state"]["value"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)


class TestDurableWrite:
    def test_file_is_canonical_json_of_one_encode(self, tmp_path):
        state = {"b": [3, 1], "a": {"y": 1.5, "x": "z"}}
        path = write_checkpoint(tmp_path, 4, state)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert payload["digest"] == state_digest(state)
        assert load_checkpoint(path).state == state

    def test_directory_fsynced_after_each_rename(self, tmp_path, monkeypatch):
        fsyncs = FsyncLog(monkeypatch)
        real_replace = os.replace

        def replace(src, dst):
            real_replace(src, dst)
            fsyncs.calls.append(("replace", os.fspath(dst)))

        monkeypatch.setattr(os, "replace", replace)
        paths = [write_checkpoint(tmp_path, seq, sample_state(seq)) for seq in (1, 2, 3)]
        directory = os.stat(tmp_path).st_ino
        renames = [i for i, c in enumerate(fsyncs.calls) if isinstance(c, tuple)]
        assert [fsyncs.calls[i][1] for i in renames] == paths
        for i in renames:
            after = fsyncs.calls[i + 1]
            assert after.is_dir and after.inode == directory


class TestPruneAndLatest:
    def test_keeps_most_recent_n(self, tmp_path):
        for seq in (5, 10, 15, 20):
            write_checkpoint(tmp_path, seq, sample_state(seq), keep=2)
        assert [seq for seq, _ in list_checkpoints(tmp_path)] == [15, 20]

    def test_latest_returns_newest(self, tmp_path):
        write_checkpoint(tmp_path, 5, sample_state(5))
        write_checkpoint(tmp_path, 9, sample_state(9))
        latest = load_latest_checkpoint(tmp_path)
        assert latest is not None and latest.seq == 9

    def test_latest_skips_damaged_with_warning(self, tmp_path):
        write_checkpoint(tmp_path, 5, sample_state(5))
        newest = write_checkpoint(tmp_path, 9, sample_state(9))
        with open(newest, "w", encoding="utf-8") as handle:
            handle.write('{"half a checkp')
        with pytest.warns(RuntimeWarning, match="skipping invalid"):
            latest = load_latest_checkpoint(tmp_path)
        assert latest is not None and latest.seq == 5

    def test_empty_or_missing_directory(self, tmp_path):
        assert load_latest_checkpoint(tmp_path) is None
        assert load_latest_checkpoint(tmp_path / "nope") is None
        assert list_checkpoints(tmp_path / "nope") == []

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "events.wal").write_text("not a checkpoint")
        (tmp_path / "checkpoint-abc.json").write_text("{}")
        write_checkpoint(tmp_path, 1, sample_state(1))
        assert len(list_checkpoints(tmp_path)) == 1


def test_state_digest_is_order_insensitive_but_value_sensitive():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert state_digest(a) == state_digest(b)
    assert state_digest(a) != state_digest({"x": 1, "y": 3})
