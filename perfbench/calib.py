"""A fixed block of interpreter work that measures how fast the CPU is right now.

On a shared host the same code runs up to twice as slow from one minute to
the next, because neighbours contend for the core. Timing this block next to
each measured call and scaling the call by REFERENCE_S / block time turns its
wall time into wall time at a fixed reference speed, which a change to negmul
can move but the neighbours cannot. The block touches nothing of negmul's:
small objects, method calls, tuples, strings, dicts and list slices, the mix
of work an interpreted library does.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Seconds one block takes on an uncontended core of the reference machine
# (2-vCPU Intel Xeon, CPython 3.11); scaled times read as seconds there.
REFERENCE_S = 0.0033


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def add(self, other: _Pair) -> _Pair:
        return _Pair((self.a + other.a) % 1000003, (self.b + other.b) % 1000003)


def _work() -> int:
    p, q, table = _Pair(1, 2), _Pair(3, 4), {}
    for i in range(5000):
        p = p.add(q)
        table[i & 63] = p
        q = table.get((i * 7) & 63, q)
    rows: list[tuple] = []
    index: dict[str, int] = {}
    for i in range(3000):
        row = (i, i + 1, str(i))
        rows.append(row)
        index[row[2]] = len(rows)
        if len(rows) > 64:
            rows = rows[32:]
    return p.a + len(sorted(index.items()))


def block_seconds() -> float:
    """Wall time of one block, with the collector paused so that the program's heap cannot sway it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
