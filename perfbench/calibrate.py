"""Host-speed calibration for the benchmark.

This machine's speed drifts by up to 2x over minutes, as other tenants load
the host. So each timing is scaled by a fixed pure-Python loop timed next to
it. The loop mixes the operations the package's hot paths spend their time
on: building small immutable records, tuples and frozensets, hashing, dict
updates, and calls. A timing t taken while the loop took c seconds is
reported as t * REFERENCE_S / c, in the seconds of a reference host where
the loop takes REFERENCE_S.

Only ``gc`` and ``time`` are imported, so a probe that times
``import qcausal.cli`` after importing this module still pays for every
module that import pulls in.
"""

import gc
import time

REFERENCE_S = 0.035  # about the loop's time on a quiet 2-core x86 VM, Python 3.11.7
ROUNDS = 20000


class _Row:
    __slots__ = ("amplitude", "cells")

    def __init__(self, amplitude, cells):
        self.amplitude = complex(amplitude)
        self.cells = frozenset(cells)


def _loop(rounds: int) -> int:
    table = {}
    acc = 0
    for i in range(rounds):
        row = _Row(i * 0.5, ((i % 7, 1), (i % 5, 0)))
        key = (row.cells, i % 31)
        table[key] = table.get(key, 0) + 1
        acc += len(sorted(c for c, _ in row.cells)) + (abs(row.amplitude) > 1.0)
    return acc + len(table)


def seconds() -> float:
    """Wall time of one fixed calibration loop.

    The collector is off during the loop, so that the number of objects the
    program under test keeps alive does not change the loop's time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(ROUNDS)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def factor(before: float, after: float) -> float:
    """Reference-host seconds per second measured between two loops."""
    return 2.0 * REFERENCE_S / (before + after)
