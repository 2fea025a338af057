"""Host-speed probe, and times scaled to a reference host speed.

The benchmark runs on a shared host whose speed at running Python changes
from one second to the next by up to a factor of two, and for minutes at a
time.  CPU time follows wall time there, so neither isolates the program.

A `Probe` runs a fixed loop from a SIGALRM handler every `tick` seconds, in
the same process and on the same core as the work, and records how long
each run of the loop took.  `Probe.scaled(t0, t1)` is the wall time of
[t0, t1] minus the probe's own time in it, times `REF_S` over the median
loop time near that interval: the time the interval would have taken on a
host where the loop takes `REF_S`.  On the 2-core machine the benchmark was
written on, scaling cut the quartile spread of a 2 s op from 0.25 of its
median to 0.06.

    python3 probe.py OUT MODULE ARG...

runs MODULE as `__main__` under a probe, as `python -m MODULE ARG...` would,
and writes the loop times to OUT as JSON; the benchmark times its cold
commands that way.
"""

from __future__ import annotations

import bisect
import json
import runpy
import signal
import statistics
import sys
import time

REF_S = 150e-6  # about the loop's time on that machine when the host is quiet
NEAR = 8  # loop times taken on each side of an interval, for short intervals


def _loop():
    total = 0
    for i in range(2000):
        total += i * i
    return total


class Timeout(BaseException):
    """Raised from the handler once `deadline` has passed.

    Not an Exception, so the program under test cannot catch it.
    """


class Probe:
    """Loop times of one single-threaded process, taken every `tick` seconds."""

    def __init__(self, tick=0.01):
        self.tick = tick
        self.starts = []
        self.durations = []
        self.deadline = None  # perf_counter() value after which a tick raises Timeout

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        if self.deadline is not None and t0 >= self.deadline:
            raise Timeout()

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Seconds [t0, t1] would have taken at the reference host speed."""
        return scale(t1 - t0, *self._within(t0, t1))

    def _within(self, t0, t1):
        """(probe seconds inside [t0, t1], loop times inside it and NEAR either side)."""
        i0 = bisect.bisect_left(self.starts, t0)
        i1 = bisect.bisect_left(self.starts, t1)
        near = self.durations[max(0, i0 - NEAR):i1 + NEAR]
        return sum(self.durations[i0:i1]), near


def scale(wall, probe_s, loop_times):
    """Wall seconds less the probe's own, at the speed where the loop takes REF_S."""
    if not loop_times:
        raise ValueError("no probe ran near the interval")
    return (wall - probe_s) * REF_S / statistics.median(loop_times)


def main(argv):
    out, module, *args = argv
    probe = Probe(tick=0.005)
    sys.argv = [module, *args]
    code = 0
    probe.start()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        probe.stop()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(probe.durations, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
