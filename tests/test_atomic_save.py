"""Crash-safe persistence for both synopsis stores.

A save that dies after writing part of its payload must leave the
previous file loadable, with the previous answers, and leave no
temporary file behind.  The crash is simulated by a file handle whose
``write`` stores half the text and then raises, standing in for a full
disk or a killed process.
"""

from __future__ import annotations

import builtins
import io
from pathlib import Path

import numpy as np
import pytest

from repro.aqp import SynopsisStore
from repro.serving import ShardedSynopsisStore


class _HalfWriter:
    """Wraps an open text file: ``write`` stores half, then fails."""

    def __init__(self, handle: io.TextIOBase) -> None:
        self._handle = handle

    def write(self, text: str) -> int:
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError("simulated crash mid-write")

    def __enter__(self) -> "_HalfWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._handle.close()

    def __getattr__(self, name: str) -> object:
        return getattr(self._handle, name)


@pytest.fixture
def crash_writes_in(monkeypatch):
    """Make every text-mode write to files in ``directory`` crash halfway."""

    def install(directory: Path) -> None:
        real_open = builtins.open

        def crashing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if "w" in mode and Path(file).parent == directory:
                return _HalfWriter(handle)
            return handle

        monkeypatch.setattr(builtins, "open", crashing_open)
        monkeypatch.setattr(io, "open", crashing_open)

    return install


def test_sharded_store_survives_a_crash_mid_save(tmp_path, crash_writes_in):
    rng = np.random.default_rng(3)
    store = ShardedSynopsisStore()
    store.create("g", rng.normal(10, 2, 100), tier="greedy", budget=16, base_leaves=16)
    path = tmp_path / "store.json"
    store.save(path)
    answer = store.point("g", 7)
    digest = store.snapshot("g").digest

    store.append("g", rng.normal(50, 2, 40))
    assert store.snapshot("g").digest != digest
    crash_writes_in(tmp_path)
    with pytest.raises(OSError, match="simulated crash"):
        store.save(path)

    loaded = ShardedSynopsisStore.load(path)
    assert loaded.snapshot("g").digest == digest
    assert loaded.point("g", 7) == answer
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]


def test_aqp_store_survives_a_crash_mid_save(tmp_path, crash_writes_in):
    rng = np.random.default_rng(4)
    store = SynopsisStore()
    store.add("a", rng.normal(10, 2, 64), 8, algorithm="greedy-abs")
    path = tmp_path / "store.json"
    store.save(path)
    answer = store.range_sum("a", 3, 40)

    store.add("b", rng.normal(0, 1, 32), 8, algorithm="greedy-abs")
    crash_writes_in(tmp_path)
    with pytest.raises(OSError, match="simulated crash"):
        store.save(path)

    loaded = SynopsisStore.load(path)
    assert loaded.names() == ["a"]
    assert loaded.range_sum("a", 3, 40) == answer
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]

