"""Every test starts and ends with no two-slit world cached.

A two-slit geometry's cast and memo live for the process (doubleslit._world),
so without this a test would find them warm from an earlier test: its
per-run counts (fans built, detects, effects computed) would read 0, and a
builder it patches would never be called.  Tests of the warm path warm the
world themselves, inside the test.
"""

import pytest

from qcausal.experiments import doubleslit


@pytest.fixture(autouse=True)
def cold_two_slit_worlds():
    doubleslit._world.cache_clear()
    yield
    doubleslit._world.cache_clear()
