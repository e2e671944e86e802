"""The content-addressed store: a failed write leaves nothing behind."""

import errno
import os
from pathlib import Path

import pytest

from repro.canon import ContentStore

KEY = "ab" * 32


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _partial_write(path, data, *args, **kwargs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data[:1])
    _disk_full()


@pytest.mark.parametrize(
    "target, failure",
    [((os, "replace"), _disk_full), ((Path, "write_text"), _partial_write)],
    ids=["replace", "write_text"],
)
def test_failed_store_leaves_no_temp_file(tmp_path, monkeypatch, target,
                                          failure):
    store = ContentStore(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(*target, failure)
        store.store(KEY, {"value": 1})
    assert not list(tmp_path.rglob("*.tmp.*"))
    assert store.load(KEY) is None
    store.store(KEY, {"value": 1})
    assert store.load(KEY) == {"value": 1}
