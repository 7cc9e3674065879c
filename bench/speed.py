"""The machine's speed, measured between the reports it is used to scale.

On a shared host the processor's speed moves by a third or more as other
tenants come and go, and a process's CPU time moves with it: in phases of
tens of seconds, longer than a run, and also from one fraction of a second
to the next.  No statistic over one run's reports removes the phases.  So a
fixed reference job is timed between reports, and each report's time is
scaled by the job's reference time over the median of its nearest timings:
the report's time on a machine on which the job takes its reference time.

Two jobs, because the two kinds of report slow down differently:

  LOOP  about a millisecond of pure-Python work in this process, like an
        in-process report; timed between every two reports, each time after
        an untimed run, so that what the report before it left in the
        caches does not count;
  COLD  a fresh interpreter importing a fixed set of standard-library
        modules, like a cold `dehn4 report` (process start, page faults,
        unmarshalling and module execution); timed every two seconds.

Neither job touches dehn4, so a change to the program cannot move them and
any saving in it shows in full.  The raw times are printed beside the
scaled ones.
"""
from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

COLD_IMPORTS = (
    "import argparse, asyncio, dataclasses, decimal, email.parser, fractions, "
    "http.client, inspect, json, unittest, xml.etree.ElementTree"
)


def loop_work():
    """Rational elimination, integer and dict work, strings and a list: the
    kinds of work dehn4's layers do, in fixed amounts (about a millisecond)."""
    n = 7
    rows = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    acc, table = 0, {}
    for i in range(1_000):
        acc = (acc * 31 + i * i) % 1_000_003
        table[i % 509] = str(acc)
    big = [x * x % 65_537 for x in range(5_000)]
    return acc + len(",".join(sorted(table.values()))) + sum(big[::97]) + rows[-1][-1].numerator


def cold_work():
    """A fresh, isolated interpreter: no PYTHONPATH, and the working directory
    is not on its path."""
    subprocess.run([sys.executable, "-I", "-c", COLD_IMPORTS], check=True,
                   capture_output=True, timeout=60)


class Speed:
    """Timings of one reference job, and the scale they give a report."""

    def __init__(self, name: str, work, reference_s: float, every_s: float, nearest: int,
                 warm: bool = False):
        self.name = name
        self.work = work
        # near the job's median time in runs on the 2-core x86-64 sandbox the
        # benchmark was tuned on, so that scaled times read close to raw ones there
        self.reference_s = reference_s
        self.every_s = every_s
        self.nearest = nearest  # timings on each side of a report that set its scale
        self.warm = warm
        self.marks: list[float] = []  # midpoints, ascending
        self.times: list[float] = []  # seconds

    def probe(self):
        if self.warm:
            self.work()  # untimed, so the timed run finds its code and data in cache
        start = perf_counter()
        self.work()
        end = perf_counter()
        self.marks.append((start + end) / 2)
        self.times.append(end - start)

    def maybe_probe(self):
        """Times the job if every_s has passed since it last ran."""
        if not self.marks or perf_counter() - self.marks[-1] >= self.every_s:
            self.probe()

    def scale(self, at: float) -> float:
        """The factor that takes a time measured at `at` to the reference
        speed, from the `nearest` timings on each side of it."""
        i = bisect.bisect(self.marks, at)
        near = self.times[max(0, i - self.nearest):i + self.nearest]
        return self.reference_s / statistics.median(near)

    def describe(self) -> str:
        return (f"{self.name} reference took {statistics.median(self.times) * 1e3:.3f} ms here "
                f"(median of {len(self.times)}) against {self.reference_s * 1e3:.1f} ms")


def loop() -> Speed:
    """Timed between every two reports; the speed can change within a second."""
    return Speed("loop", loop_work, 0.0016, 0.0, 1, warm=True)


def cold() -> Speed:
    return Speed("cold", cold_work, 0.150, 2.0, 4)
