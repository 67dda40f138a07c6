"""Host-speed meter: a fixed pure-Python computation run in a loop.

Usage: ``python3 perfbench/meter.py <log path> <lifetime seconds>``.

The run pins this process to the same vCPU as the sessions and import probes
it measures, so the scheduler interleaves them a few milliseconds apart and
both see the same host speed.  On a shared host that speed swings by up to
2x for tens of seconds at a time, so a raw CPU time says more about the
neighbours than about ncgeode; dividing by this meter's speed over the same
interval removes most of that.

Each iteration appends one line ``<monotonic end time> <CPU seconds>`` to the
log.  The loop ends when the lifetime is over or the parent process is gone.
"""

from __future__ import annotations

import os
import random
import sys
import time
from fractions import Fraction

CHAIN_LENGTH = 1 << 20
CHAIN_STEPS = 18_000


def arithmetic() -> None:
    """Rational polynomial products and a dict keyed by tuples, the kinds of
    arithmetic ncgeode spends its time on."""
    polys = [[Fraction(i + j, j + 1) for j in range(6)] for i in range(12)]
    acc = {}
    for a in polys:
        for b in polys:
            out = [Fraction(0)] * 11
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            key = tuple(out[:2])
            acc[key] = acc.get(key, 0) + 1


def make_chain() -> list[int]:
    """One random cycle through ``CHAIN_LENGTH`` list slots (Sattolo's
    shuffle), about 36 MB with its int objects."""
    rng = random.Random(0)
    chain = list(range(CHAIN_LENGTH))
    for k in range(CHAIN_LENGTH - 1, 0, -1):
        j = rng.randrange(k)
        chain[k], chain[j] = chain[j], chain[k]
    return chain


def reference(chain: list[int]) -> None:
    """One meter iteration, about 20 ms of CPU on an uncontended core of a
    current Xeon server: the arithmetic, then a walk along the chain whose
    every step misses the cache.

    Host contention slows the arithmetic more than the memory-bound walk, and
    ncgeode's workloads sit between the two: eseries, with the largest
    working set, slows least.  The walk's share, about a quarter of the
    iteration, was fitted so that the three workloads slow about as much as
    the meter does.
    """
    arithmetic()
    i = 0
    for _ in range(CHAIN_STEPS):
        i = chain[i]


def main(path: str, lifetime: float) -> None:
    parent = os.getppid()
    end = time.monotonic() + lifetime
    chain = make_chain()
    with open(path, "w") as log:
        while time.monotonic() < end and os.getppid() == parent:
            cpu = time.process_time()
            reference(chain)
            cpu = time.process_time() - cpu
            log.write(f"{time.monotonic():.6f} {cpu:.9f}\n")
            log.flush()


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
