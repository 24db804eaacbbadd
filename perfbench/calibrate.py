"""A fixed reference computation that measures how fast the machine is now.

    python3 perfbench/calibrate.py      # prints {"cal_s": seconds}

On a shared host the same work can take 25% longer from one minute to the
next. ``run.py`` runs this in its own process after every workload process
and divides the workload's time by it. The work is exact ``Fraction``
elimination, then lookups in scattered order in a dict of about 80,000
tuple keys (about 20 MB): the same kinds of operation that liefusion spends
its time on, with a working set of the same order as a workload's, so that
the host's cache and memory contention slows it as it slows the workloads.
It imports nothing from liefusion, so no change to the program can change
it.
"""
from __future__ import annotations

import json
import time
from fractions import Fraction

# How many seconds the calibration took on the machine that the normalised
# metrics are scaled to (a 2-CPU sandbox, Python 3.11).
REFERENCE_S = 0.5

N = 26
KEYS = 80_000
PASSES = 3


def calibrate() -> float:
    start = time.perf_counter()
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(N)] for i in range(N)]
    for c in range(N):
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for r in range(N):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    keys = [(i % 1009, i // 1009, i % 7 - 3) for i in range(KEYS)]
    table = {k: Fraction(i + 1, i % 13 + 1) for i, k in enumerate(keys)}
    total = 0
    for p in range(PASSES):
        for i in range(KEYS):
            # 7919 is prime to KEYS, so each pass visits every key once.
            total += table[keys[(i * 7919 + p) % KEYS]].denominator
    elapsed = time.perf_counter() - start
    expected = PASSES * sum(Fraction(i + 1, i % 13 + 1).denominator for i in range(KEYS))
    if any(m[i][j] != (i == j) for i in range(N) for j in range(N)) or total != expected:
        raise RuntimeError("calibration computed a wrong result")
    return elapsed


if __name__ == "__main__":
    print(json.dumps({"cal_s": calibrate()}))
