"""The speed of the core a pass runs on, and the time the host withheld it.

The benchmark runs on shared machines whose cores slow down and speed up
by tens of percent, over seconds to minutes, as other tenants come and
go; the CPU time of a pass grows with its wall time, so the cores run
slower rather than less often.  Raw seconds of a pass then measure the
neighbours as much as the program.

To take that out, an untraced pass runs a small fixed kernel every
PERIOD_S (on SIGALRM, in the main thread) and times its second call in a
row in the thread's own CPU time; timed cold, it would read the cache
state the program left rather than the core.  The kernel does what
hsilab's episode loop does: scalar numpy draws, small-array indexing and
cumsum, dict updates, so it slows when the program slows.  speed() is the
trimmed mean over the pass of REF_NS / kernel time: the pass's average
speed relative to a core that runs the kernel in REF_NS.  A time
multiplied by it is in reference seconds, what the pass would have taken
on such a core.

Thread CPU time leaves out the time the thread waits for a CPU, so how
much of a CPU the kernel gets does not move its reading.  What it cannot
tell apart is a neighbour's load from the program's own: a change that
runs work in parallel processes on the same cores also slows the sampled
core, so it should be judged on raw seconds as well, which run.py reports in
its record as raw_end_to_end.  The kernel's cost, about 0.4 ms per sample
or 1% of a pass, stays inside the timed span; it is the same share on
every commit.

The host also stops the virtual CPUs now and then, at times for most of
a second in a few seconds; the guest counts that time as steal in
/proc/stat.  It shows in a pass's wall time and not in its CPU time, and
the kernel cannot see it, so stolen_seconds() is read before and after
the pass.
"""

import os
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.04
# About the kernel's median thread CPU time on the machine the benchmark
# was defined on (a shared 2-vCPU Xeon VM, Python 3.11, numpy 2.4), so a
# reference second there is about a second; it sets the scale of reference
# seconds, not their steadiness.
REF_NS = 175_000
TRIM = 0.1  # share of the slowest and of the fastest samples left out

_ROWS = np.linspace(0.0, 1.0, 64).reshape(4, 4, 4)


def kernel(rng):
    """A fixed piece of episode-loop-like work; returns a checksum."""
    acc = 0.0
    seen = {}
    for i in range(15):
        u = rng.random()
        row = _ROWS[i & 3, (i >> 2) & 3]
        j = int(np.searchsorted(np.cumsum(row), u * row.sum()))
        acc += 1.0 if u < row[j & 3] else 0.0
        seen[(i & 7, j)] = seen.get((i & 7, j), 0) + 1
    return acc + len(seen)


def stolen_seconds():
    """Steal time of all CPUs so far, from /proc/stat (Linux)."""
    total = 0
    with open("/proc/stat") as stat:
        for line in stat:
            fields = line.split()
            if fields[0].startswith("cpu") and fields[0] != "cpu":
                total += int(fields[8])
    return total / os.sysconf("SC_CLK_TCK")


class Sampler:
    """Times kernel() every PERIOD_S between start() and stop()."""

    def __init__(self):
        self.samples = array("q")
        self._rng = np.random.default_rng(12345)
        for _ in range(20):  # first calls pay for numpy's lazy set-up
            kernel(self._rng)

    def sample(self, *_):
        kernel(self._rng)
        start = time.thread_time_ns()
        kernel(self._rng)
        self.samples.append(time.thread_time_ns() - start)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # a pass shorter than PERIOD_S still has two samples

    def speed(self):
        speeds = np.sort(REF_NS / np.frombuffer(self.samples, dtype=np.int64))
        cut = int(len(speeds) * TRIM)
        return float(speeds[cut:len(speeds) - cut].mean())
