"""Host-speed sampling, so that timings of one commit compare with another's.

On a shared virtual machine the CPU seconds a fixed piece of Python takes
follow the host: on the 2-vCPU VM this benchmark was tuned on, the same
pass took from 1x to 2x its fastest time, in stretches lasting from seconds
to minutes. While ``meter`` runs, a profiling timer interrupts the process
every ``PERIOD_S`` CPU seconds and times one fixed calibration chunk: plain
Python graph work that does not touch binox, so a change to binox never
changes it. ``clock()`` leaves the chunks out, and ``meter.scale(first)``
turns CPU seconds measured since sample ``first`` into reference seconds:
the CPU seconds the same work takes on a host where one chunk takes
``REF_CHUNK_S``. The samples are uniform in CPU time, so their mean is the
chunk time averaged over the same time as the work it scales.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import thread_time

# CPU seconds between samples, and the chunk time the reference host takes
# (about the median on the VM above). A chunk is about 5% of a run's time.
PERIOD_S = 0.025
REF_CHUNK_S = 1.2e-3

_N = 300
_ADJ = [[(v * 7 + k * 13) % _N for k in range(1, 5)] + [(v + 1) % _N] for v in range(_N)]


def chunk():
    """Breadth-first layering of a fixed graph, four times, plus sorting."""
    out = 0
    for root in range(4):
        depth = {root: 0}
        order = [root]
        for v in order:
            d = depth[v] + 1
            for w in _ADJ[v]:
                if w not in depth:
                    depth[w] = d
                    order.append(w)
        out ^= hash(tuple(sorted((d, v) for v, d in depth.items())))
    return out


class Speedometer:
    """Calibration samples taken on a CPU-time timer while in a ``with``."""

    def __init__(self):
        self.samples = []  # CPU seconds of each chunk
        self.spent = 0.0  # CPU seconds of all chunks
        self._busy = False
        self._saved = None

    def sample(self, *_):
        if self._busy:  # the timer fired again inside a slow chunk
            return
        self._busy = True
        collect = gc.isenabled()
        gc.disable()  # the collector would charge binox's garbage to the chunk
        try:
            start = thread_time()
            chunk()
            took = thread_time() - start
            self.samples.append(took)
            self.spent += took
        finally:
            if collect:
                gc.enable()
            self._busy = False

    def clock(self):
        """CPU seconds of this thread, less the chunks'. (An armed profiling
        timer makes the process clock tick-grained; the thread clock stays
        exact, and the benchmark runs in one thread.)"""
        while True:
            spent = self.spent
            now = thread_time()
            if spent == self.spent:
                return now - spent

    def scale(self, first):
        """Reference seconds per CPU second, from the samples since index
        ``first``; takes one now if the timer has not fired since."""
        if len(self.samples) == first:
            self.sample()
        return REF_CHUNK_S / statistics.fmean(self.samples[first:])

    def __enter__(self):
        self._saved = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._saved)
        return False


meter = Speedometer()
clock = meter.clock
