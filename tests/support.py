"""Helpers shared by several test modules: a time limit for the size tests
and a doubling measure for the paths meant to be linear.  Generated inputs
live in ``tests/inputs.py``.
"""
from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Fail when the body runs longer than ``seconds``, and stop it, rather
    than hang, when it is still running then.

    The elapsed time is also read after the body: an alarm that lands in a
    garbage-collector callback is reported as unraisable and lost.  The
    objects of earlier tests are frozen out of the collector's scans for the
    body's duration, so that they do not count against its bound.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    gc.collect()
    gc.freeze()
    previous = signal.signal(signal.SIGALRM, expire)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        gc.unfreeze()
    took = time.perf_counter() - start
    if took > seconds:
        raise TimeoutError(f"took {took:.3f} s, more than {seconds} s")


def doubling_ratios(run, inputs, repeats=5):
    """Ratios of the least times of ``run`` on consecutive ``inputs``, which
    should each be the same multiple k of the size of the one before: about
    k when ``run`` is linear in the size, about k squared when it is
    quadratic (2 and 4 when each input is twice the last).

    Each run is timed by this process's CPU time, not the wall clock, so
    that the time its core spends on other jobs is not counted.  Each round
    runs every input once, and each size keeps its fastest run, so that
    what load still costs (a cold cache after a switch) has to slow every
    run of one size to tip a ratio.  The collector is off while timing, so
    that its passes over the objects of earlier tests do not land inside
    one size and not another.
    """
    times: list[list[float]] = [[] for _ in inputs]
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for item, taken in zip(inputs, times):
                start = time.process_time()
                run(item)
                taken.append(time.process_time() - start)
    finally:
        gc.enable()
    least = [min(taken) for taken in times]
    return [b / a for a, b in zip(least, least[1:])]
