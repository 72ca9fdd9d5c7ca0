"""Helpers shared by several test modules: a time limit for the size tests,
a doubling measure for the paths meant to be linear, and a generator of
positional rule sets over the benchmark's ladder tagset.
"""
from __future__ import annotations

import gc
import itertools
import signal
import statistics
import time
from contextlib import contextmanager

import gen


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
    """Ratios of the median times of ``run`` on consecutive ``inputs``, which
    should each be the same multiple k of the size of the one before: about
    k when ``run`` is linear in the size, about k squared when it is
    quadratic (2 and 4 when each input is twice the last).

    Each round runs every input once, so that a spell of load on the
    machine slows all sizes alike rather than the one being timed.  The
    collector is off while timing, so that its passes over the objects of
    earlier tests do not land inside one size and not another.
    """
    times: list[list[float]] = [[] for _ in inputs]
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for item, taken in zip(inputs, times):
                start = time.perf_counter()
                run(item)
                taken.append(time.perf_counter() - start)
    finally:
        gc.enable()
    medians = [statistics.median(taken) for taken in times]
    return [b / a for a, b in zip(medians, medians[1:])]


def positional_rules(n_features: int, fixed: int, coarse: tuple[int, ...] = (),
                     sparse: tuple[int, ...] = ()) -> str:
    """A rules file for ``gen.ladder_tagset(n_features)`` whose tags are
    positional, as MULTEXT-East morphosyntactic descriptions are: each name
    spells a leaf and feature values as digits.

    * ``P`` tags, one per leaf and values of ``f0`` to ``f{fixed-1}``, each a
      full conjunction of them; they are disjoint and cover the universe.
    * ``C`` tags, for each ``k`` in ``coarse`` one per leaf and values of the
      first ``k`` features; each strictly contains the ``P`` tags below it.
    * ``S`` tags, for each ``k`` in ``sparse`` one per values of the last
      ``k`` features under any leaf; they cut across every other tag, and a
      shorter one contains the longer ones that extend it.
    """
    values = range(gen.LADDER_VALUES)
    coverage: dict[str, list[tuple[str, str]]] = {}
    for prefix, k in [("P", fixed)] + [("C", k) for k in coarse]:
        for li, leaf in enumerate(gen.LADDER_LEAVES):
            for combo in itertools.product(values, repeat=k):
                coverage[prefix + str(li) + "".join(map(str, combo))] = [
                    ("pos", leaf),
                    *((f"f{f}", gen.ladder_value(f, v))
                      for f, v in enumerate(combo))]
    for k in sparse:
        first = n_features - k
        for combo in itertools.product(values, repeat=k):
            coverage["S" + "".join(map(str, combo))] = [
                (f"f{f}", gen.ladder_value(f, v))
                for f, v in enumerate(combo, start=first)]
    lines = ["mapping positional for tagset ladder",
             "tags " + ", ".join(coverage)]
    for tag, conj in coverage.items():
        lines.append(f"[pos = '{tag}'] => ["
                     + " & ".join(f"{f} = {v}" for f, v in conj) + "].")
    return "\n".join(lines) + "\n"
