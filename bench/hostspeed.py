"""The host's speed, sampled while the benchmark runs.

The host's CPU speed swings by up to 2x from one fraction of a second to the
next, as other tenants load the physical cores, and for minutes at a time.
A command's wall time follows those swings.  So the benchmark times a fixed
piece of its own work, a calibration, before and after each command and
every ``INTERVAL`` seconds while it runs, and divides the command's time by
the calibration's.  That ratio holds steady while the raw time drifts.
"""

import signal
import statistics
import time

import numpy as np

# Wall seconds between calibrations while a command runs.
INTERVAL = 0.05
# Calibrations timed right before and right after each command.
EDGE_SAMPLES = 3
# The calibration's fastest time on the reference host (2-core Intel Xeon
# VM, Python 3.11.7, numpy 2.4.6).  Command times are reported as seconds
# at that speed.
REFERENCE_S = 0.0009

_G = 2.0 * np.eye(6) + 0.1
_B = np.linspace(0.0, 1.0, 6)


def calibrate():
    """Time about 1 ms of small numpy products and Python dict and string
    handling, the mix the program runs."""
    start = time.perf_counter()
    x, words = np.zeros(6), {}
    for i in range(300):
        x = np.maximum(x - 0.05 * (_G @ x - _B), 0.0)
        key = "w%d" % (i % 97)
        words[key] = words.get(key, 0) + 1
    return time.perf_counter() - start


class Probe:
    """Calibrates from a timer signal while the ``with`` block runs.

    ``samples`` holds the calibration times; ``spent`` the wall time the
    signal handler took, which the caller takes off the block's time.
    Python runs the handler between bytecodes, so a long call into C delays
    a sample but never interrupts it.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def timed(fn, *args):
    """Calls ``fn(*args)``; returns its result, its wall seconds, and those
    seconds at the reference host's speed."""
    before = [calibrate() for _ in range(EDGE_SAMPLES)]
    start = time.perf_counter()
    with Probe() as probe:
        result = fn(*args)
    secs = time.perf_counter() - start - probe.spent
    after = [calibrate() for _ in range(EDGE_SAMPLES)]
    speed = statistics.fmean(REFERENCE_S / c for c in before + probe.samples + after)
    return result, secs, secs * speed
