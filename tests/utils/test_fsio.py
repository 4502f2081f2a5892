"""Durable-rename helpers backing journal bases and segments."""

from __future__ import annotations

import os

from repro.utils.fsio import durable_replace, fsync_dir


def test_fsync_dir_returns_true_for_real_directory(tmp_path):
    assert fsync_dir(str(tmp_path)) is True


def test_fsync_dir_degrades_to_false_on_missing_path(tmp_path):
    assert fsync_dir(str(tmp_path / "nope")) is False


def test_durable_replace_is_atomic_rename(tmp_path):
    target = tmp_path / "doc.json"
    target.write_text("old")
    tmp = tmp_path / "doc.json.tmp"
    tmp.write_text("new")
    durable_replace(str(tmp), str(target))
    assert target.read_text() == "new"
    assert not os.path.exists(tmp)


def test_durable_replace_creates_missing_target(tmp_path):
    tmp = tmp_path / "stage.tmp"
    tmp.write_text("content")
    target = tmp_path / "final"
    durable_replace(str(tmp), str(target))
    assert target.read_text() == "content"
