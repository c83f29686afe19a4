"""Speed probe: a fixed kernel, timed again and again on the benchmark's CPU.

    python3 perfbench/probe.py

run.py starts it next to every worker process, on the same single CPU.  It
prints "ready" once warm, then runs a small kernel (a dict-and-tuple BFS,
Fraction sums, batched 6x6 SVDs, a 100x100 product; no horocp code) every
PERIOD_S seconds and times each run in thread CPU time, until a line
arrives on stdin.  Then it prints one JSON line with the mean kernel time
and the number of samples.

On the shared VM where the benchmark was defined the speed of one CPU
swings by more than half within seconds, and the other CPU does not follow.
A kernel timed on the same CPU, all through the repetition, follows it; a
kernel timed before and after, or on the other CPU, does not.  The probe
takes about 4% of the CPU.  It never imports horocp, so no change to horocp
can move its time.
"""

from __future__ import annotations

import json
import select
import sys
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.05
WARMUP = 5

_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(30, 6, 6))
_DENSE = _RNG.normal(size=(100, 100))


def kernel() -> None:
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    for d in range(1, 16):
        nxt = []
        for a in frontier:
            for s in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                c = (a[0] + s[0], a[1] + s[1])
                if c not in dist:
                    dist[c] = d
                    nxt.append(c)
        frontier = nxt
    sum((Fraction(i % 7, 5 + i % 4) for i in range(300)), Fraction(0))
    np.linalg.svd(_SMALL, compute_uv=False)
    _DENSE @ _DENSE


def main() -> None:
    for _ in range(WARMUP):
        kernel()
    print("ready", flush=True)
    samples = []
    while True:
        start = time.thread_time()
        kernel()
        samples.append(time.thread_time() - start)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps({"calibration_s": sum(samples) / len(samples), "samples": len(samples)}))


if __name__ == "__main__":
    main()
