"""Machine speed, measured with a fixed pure-Python kernel in a helper process.

The benchmark runs on CPUs shared with other work, and their speed drifts
by tens of percent over minutes: ten runs of one workload, one after the
other, read from 10 to 17 requests a second.  A ``Speedometer`` times a
fixed kernel between requests.  The kernel does work of the same kinds as
omniex (row reduction modulo a small and a 61-bit prime, ``Fraction``
sums, dict and JSON work) but calls nothing of omniex.  It runs in a
helper process on the benchmark's CPU, and only while the benchmark waits
for it, so neither the benchmark's load nor the heap, garbage-collector
or cache state that omniex leaves behind moves it.  Scaling a duration by
``REFERENCE_S`` over the kernel's duration at that time gives the duration
at a fixed machine speed: the speed at which one kernel run takes
``REFERENCE_S``.

Run as a script, this file is the helper: for each line it reads it runs
the kernel once and writes the kernel's duration in seconds.
"""

from __future__ import annotations

import bisect
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0006    # kernel duration that defines the reference speed
INTERVAL_S = 0.05       # at most one kernel run per interval
WINDOW_S = 1.0          # kernel runs this close to a duration scale it
WARMUP = 20
P61 = (1 << 61) - 1


def _reduce(p: int, rows_n: int, cols: int) -> int:
    rows = [[(i * 7 + j * 13 + i * j * 31) % p for j in range(cols)]
            for i in range(rows_n)]
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows_n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rows_n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == rows_n:
            break
    return rank


def kernel() -> int:
    rank = _reduce(101, 10, 20) + _reduce(P61, 6, 12)
    acc = Fraction(0)
    seen = {}
    for k in range(1, 60):
        acc += Fraction(k, k + 1)
        seen[k * 2654435761 % 1024] = acc
    doc = {"rows": [[i, j, str(i * j)] for i in range(20) for j in range(5)]}
    return rank + len(seen) + len(json.dumps(doc))


class Speedometer:
    """Client of the helper process; stop it with ``close`` or ``with``."""

    def __init__(self):
        self.times: list[float] = []       # start of each kernel run
        self.durations: list[float] = []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def sample(self, runs: int = 1) -> None:
        for _ in range(runs):
            start = time.perf_counter()
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            self.durations.append(float(self._proc.stdout.readline()))
            self.times.append(start)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel duration near [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.durations[lo:hi]
        if not near:   # fall back to the runs closest in time
            i = bisect.bisect_left(self.times, start)
            near = self.durations[max(0, i - 5):i + 5]
        return REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.durations)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> "Speedometer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for _ in range(WARMUP):
        kernel()
    for _line in sys.stdin:
        start = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
