"""Machine-speed correction for the end-to-end times.

The benchmark shares a few cores of a host with other tenants, whose load
slows the same code by 25-80% in phases of seconds to minutes.  A 30-second
run can fall wholly inside such a phase, so no statistic taken over the run
alone makes its times repeat.  Instead the run samples the machine's speed
while it measures: a timer interrupts the workload every ``INTERVAL``
seconds and runs a fixed reference burst (pure Python, no satforge code)
whose duration is recorded and excluded from the operation being timed.

Each operation's time is then multiplied by the machine's mean speed over
the bursts taken during it or within ``WINDOW`` seconds of it, a burst's
speed being ``REF_S`` / its duration: the result is the time the operation
would have taken at the speed at which one burst takes ``REF_S`` seconds.
An operation longer than ``INTERVAL`` is covered by its own bursts, so a
change of speed within it is weighted by how long it lasted.  The burst
mixes the kinds of work satforge does (bitmask path search, dict/set graph
traversal, ``Fraction`` sums), and since satforge never runs inside it, at a
given machine speed a change to satforge moves the corrected times by the
same factor as the raw ones, while the host's load mostly cancels.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import gen

INTERVAL = 0.2  # seconds between bursts while an operation runs
WINDOW = 0.5  # bursts this close to an operation estimate its speed
REF_S = 0.01  # nominal burst duration: its median on the 2.1 GHz Xeon vCPU of the baseline

# Set-up runs in fresh interpreters, whose start-up, module lookups, bytecode
# loading and C-extension loading host load slows more than it slows the
# burst.  Their reference is a fresh interpreter that imports a fixed set of
# standard-library modules: the same kind of work, none of it satforge's.
REF_LAUNCH = ("import json, fractions, statistics, argparse, decimal, email.message, "
              "http.client, unittest, xml.etree.ElementTree, asyncio, csv, sqlite3, ssl, "
              "zipfile")
REF_LAUNCH_S = 0.14  # its median wall time on the same machine


def burst():
    """A fixed piece of pure-Python work, the same on every call."""
    rng = random.Random(12345)
    for _ in range(5):
        gen.random_saturated(rng, 14)
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i % 7 - 3, 3 * (i % 5 + 1))
    n = 60
    adj = {v: set() for v in range(n)}
    for _ in range(180):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for s in range(0, n, 2):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in sorted(adj[x]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        tuple(sorted(dist.items()))


class Speed:
    """Burst samples (end time, duration), taken by a SIGALRM timer while
    ``active`` is true and on demand by ``sample``.  ``stolen`` is the total
    time spent in bursts, for subtracting from the operation that they
    interrupted."""

    def __init__(self):
        self.times, self.durations = [], []
        self.active = False
        self.stolen = 0.0

    def sample(self):
        t0 = perf_counter()
        burst()
        t1 = perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)
        self.stolen += t1 - t0

    def _on_alarm(self, signum, frame):
        if self.active:
            self.sample()

    @contextmanager
    def sampling(self):
        """Arm the timer for the duration of the block; always disarmed and
        the previous handler restored on the way out."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.active = False

    def corrected(self, t0, t1, seconds):
        """`seconds`, measured between t0 and t1, scaled to reference speed."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        near = self.durations[lo:hi] or self.durations
        return seconds * statistics.fmean(REF_S / d for d in near)
