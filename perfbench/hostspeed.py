"""Host speed probe: a clock that reads seconds at a reference host speed.

The benchmark shares its CPUs with other tenants, whose load changes the
speed of the same code by up to a factor of 2.3 over minutes (see
``drift.py``). A 30-second run cannot average over that, so the timed calls
are read from a clock that corrects for it. Every ``INTERVAL`` seconds a
SIGALRM handler times one fixed reference pass, written here and independent
of the program, and the clock advances by the real time since the last tick
times ``REF_S`` over the median of the last ``WINDOW`` pass times. Time spent
in the handler is left out of both clocks. On a host where the pass takes
``REF_S`` seconds the corrected clock runs at real time.

    factor = start(); t0 = now(); ...; t1 = now(); stop()
    corrected_s, real_s = t1[0] - t0[0], t1[1] - t0[1]

``factor`` corrects a time measured just before ``start()``, such as set-up.

Without ``start()`` both readings are ``time.perf_counter()``.
"""
import signal
import statistics
import time
from collections import deque

import numpy as np

INTERVAL = 0.1          # s between reference passes
WINDOW = 5              # passes in the running median
START_PASSES = 15       # passes timed by start(), for the factor it returns
REF_S = 1.3e-3          # nominal pass time, s: roughly the pass on a quiet host

_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(16, 16))
_MEDIUM = _rng.normal(size=(20, 20, 16, 16))
_VEC = _rng.normal(size=16)


def reference_pass():
    """A fixed mix like the program's: interpreted Python, many numpy calls
    on K-sized arrays, and a few passes over an array of 400 K x K blocks."""
    acc = 0.0
    table = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i
        acc += table[i % 97] % 3.0
    x = _VEC
    for _ in range(100):
        x = np.tanh(_SMALL @ x) + 0.1 * _VEC
        acc += float(x.max())
    y = np.exp(-np.abs(_MEDIUM - _MEDIUM.transpose(1, 0, 3, 2)))
    acc += float(y.sum(axis=(2, 3)).max() + (y * _MEDIUM).min())
    return acc


def _time_pass():
    start = time.perf_counter()
    reference_pass()
    return time.perf_counter() - start


class _Clock:
    def __init__(self):
        self.running = False
        self.passes = []                # every pass time of the run, s

    def start(self):
        """Start ticking; return the correction factor measured by
        ``START_PASSES`` passes before the first tick."""
        self.passes = [_time_pass() for _ in range(START_PASSES)]
        self.recent = deque(self.passes, maxlen=WINDOW)
        self.scale = REF_S / statistics.median(self.recent)
        at_start = REF_S / statistics.median(self.passes)
        self.corrected = self.real = 0.0
        self.ticks = 0
        self.last = time.perf_counter()
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return at_start

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def _tick(self, signum, frame):
        elapsed = time.perf_counter() - self.last
        self.corrected += elapsed * self.scale
        self.real += elapsed
        pass_s = _time_pass()
        self.recent.append(pass_s)
        self.passes.append(pass_s)
        self.scale = REF_S / statistics.median(self.recent)
        self.ticks += 1
        self.last = time.perf_counter()

    def now(self):
        if not self.running:
            t = time.perf_counter()
            return t, t
        while True:                     # retry if a tick ran in between
            ticks = self.ticks
            elapsed = time.perf_counter() - self.last
            reading = (self.corrected + elapsed * self.scale, self.real + elapsed)
            if ticks == self.ticks:
                return reading


_clock = _Clock()
start = _clock.start
stop = _clock.stop
now = _clock.now


def passes():
    """Every reference pass time of the current or last run, s."""
    return list(_clock.passes)
