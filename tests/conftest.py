"""Shared test configuration: hypothesis profiles and a leaked-worker guard.

Two registered profiles:

* ``default`` — hypothesis's stock randomized search (local development:
  new falsifying examples are worth finding).
* ``ci`` — ``derandomize=True``: the example sequence is a pure function
  of each test's strategy, so a green CI run is reproducible and a red
  one bisects.  CI selects it via ``HYPOTHESIS_PROFILE=ci``.

Any property whose assertion uses an empirically-calibrated constant
(see ``test_properties_distributed.py``) is only meaningful when the
examples it runs on are deterministic — that's what the ``ci`` profile
guarantees.

Every test must also leave no live ``multiprocessing`` child behind: the
process runtime joins its workers when a build returns or raises, and
the autouse fixture below fails any test after which one is still alive.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Iterator

import pytest
from hypothesis import settings

settings.register_profile("default", settings())
settings.register_profile("ci", settings(derandomize=True))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def no_leaked_workers() -> Iterator[None]:
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"the test left live child processes: {leaked}"
