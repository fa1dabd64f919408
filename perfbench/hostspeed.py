"""Host speed, measured alongside the work whose times it scales.

On a shared host the speed of the same pure-Python code drifts, by up to 2x,
in phases that last from tens of milliseconds to minutes; process CPU time
drifts with wall time, so the host runs the code slower, it does not just
schedule it less.  A phase that covers a whole run moves a plain wall-clock
median, and no run length averages it out.

So a run also times a fixed calibration unit, stdlib only and independent of
hbcells: every ``EVERY_S`` seconds while items run, from a timer signal that
interrupts the item (the unit's time is taken out of the item's), and around
each set-up.  The unit does the kind of work the workloads do: sparse
polynomial products over ``Fraction`` and ``int`` in dicts keyed by exponent
tuples, and building a dict of tuples and lists.  A time is multiplied by
``REFERENCE_S`` over the median of the unit times taken during it and of
``WINDOW // 2`` on each side, which gives it on a host where one unit takes
``REFERENCE_S``.  A change to hbcells moves the item times and not the unit,
so it shows in the scaled times in full.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# About one calibration unit's time on the host the bounds were set on (2
# CPUs of an Intel Xeon under KVM, Python 3.11.7) in its faster phases, so
# scaled times stay close to that host's milliseconds.
REFERENCE_S = 0.002
# Wall time between two calibration samples while items run.
EVERY_S = 0.04
# Samples on both sides of a timed interval that join those taken during it.
WINDOW = 6

_DEGREE = 4
_QQ_A = {(i, j): Fraction(i + 1, j + 2) for i in range(_DEGREE) for j in range(_DEGREE - i)}
_QQ_B = {(i, j): Fraction(j - 3, i + 1) for i in range(_DEGREE) for j in range(_DEGREE - i)}
_ZZ_A = {(i, j, k): 3 * i - j + 7 * k + 1
         for i in range(_DEGREE) for j in range(_DEGREE - i) for k in range(2)}


def _product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _churn(n):
    table = {}
    for i in range(n):
        table[(i, i + 1)] = [i, (i, i)]
    return table


def unit():
    """The calibration unit: one fixed computation, its result checked.

    Arithmetic alone speeds up and slows down with the host more than the
    workloads do; with the allocation churn added it tracks them more closely.
    """
    qq = _product(_QQ_A, _QQ_B)
    zz = _product(_ZZ_A, _ZZ_A)
    # The churn is made in three small tables rather than one large one, so
    # that a sample taken at an item's peak of memory adds little to it.
    sizes = [len(_churn(1000)) for _ in range(3)]
    if len(qq) != 27 or len(zz) != 83 or sizes != [1000] * 3:
        raise AssertionError("calibration unit gave a wrong result")


class HostSpeed:
    """Calibration unit times, in the order they were taken.

    Used as a context manager, it samples every EVERY_S seconds of wall time
    until the block ends.  ``spent`` is the time all samples took, so code
    they interrupted can take it out of its own.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal):
        """Time one unit with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        unit()
        self.samples.append(perf_counter() - t0)
        if enabled:
            gc.enable()
        self.spent += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first, end):
        """Factor that takes the time of an interval, during which samples
        ``first`` to ``end - 1`` were taken, to the reference host."""
        side = WINDOW // 2
        window = self.samples[max(0, first - side):end + side]
        return REFERENCE_S / statistics.median(window)

    def speed(self):
        """The run's median host speed relative to the reference host."""
        return REFERENCE_S / statistics.median(self.samples)
