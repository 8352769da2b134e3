"""Every test starts and ends with no two-slit world, no runtime store and no
parser cached.

A two-slit geometry's cast and memo live for the process (doubleslit._world),
and so do the refined runtime's stores, one set per space (runtime._stores),
and the CLI's parser (cli.build_parser).  Without this a test would find
them warm from an earlier test: its per-run counts (fans built, detects,
effects computed, boards laid out, publications keyed) would read 0, a
builder it patches would never be called, and a store it reads would hold
another test's entries.  Tests of the warm path warm the caches themselves,
inside the test.
"""

import pytest

from qcausal import cli, runtime
from qcausal.experiments import doubleslit

CACHES = (doubleslit._world, runtime._stores, cli.build_parser)


@pytest.fixture(autouse=True)
def cold_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()
