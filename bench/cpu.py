"""Pin the calling process to whichever allowed CPU is fastest right now, and
measure how fast the host runs at the moment.

On a small shared host the same Python loop can run 1.5x slower on one vCPU
than on the other, and which one is slow changes every few to tens of
seconds.  A process the kernel moves between them mixes both speeds.  The
benchmark measures each CPU with a short loop before every round and runs
the round on the faster one; children inherit the affinity.  Only this
process's own affinity is changed.

Pinning does not remove the rest: the speed of the faster CPU itself moves
by half within a minute as other tenants load the host.  So every timed
operation is bracketed by runs of probe(), a fixed piece of work of the kind
genusforge does (sparse polynomial products over Fractions in dicts) that
does not use genusforge, and its time is rescaled to the probe's nominal
speed by scaled().
"""

from __future__ import annotations

import gc
import os
import time
from fractions import Fraction

_SPIN = 150_000

# The probe multiplies this 100-term polynomial by itself: 10,000 Fraction
# products summed into a dict keyed by exponent pairs.
_PROBE_TERMS = tuple((i, j, Fraction(i + 1, j + 2)) for i in range(10) for j in range(10))
# Median time of probe() on a 2-vCPU shared VM (Intel Xeon, 2.0 GHz) at a
# quiet moment.  scaled() reports times at this probe speed; its value only
# sets the scale, and it must stay the same for every commit compared.
NOMINAL_PROBE_S = 0.035


def _spin() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(_SPIN):
        x += i * i
    return time.perf_counter() - t0


def allowed() -> "list[int]":
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_fastest(cpus) -> "tuple[int | None, float]":
    """Time a short loop twice on each CPU in cpus and stay on the fastest;
    returns that CPU and its loop time."""
    cpus = list(cpus)
    speed = {}
    for cpu in cpus:
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin(), _spin())
    if not speed:
        return None, min(_spin(), _spin())
    best = min(cpus, key=speed.__getitem__)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {best})
    return best, speed[best]


def probe() -> float:
    """Seconds taken by one run of the fixed probe, with the cyclic garbage
    collector off, so that the objects a worker holds do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        product: dict = {}
        for i, j, c in _PROBE_TERMS:
            for k, l, d in _PROBE_TERMS:
                key = (i + k, j + l)
                product[key] = product.get(key, 0) + c * d
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, probe_s: float) -> float:
    """seconds measured while probe() took probe_s, rescaled to the time it
    would take while probe() takes NOMINAL_PROBE_S."""
    return seconds * NOMINAL_PROBE_S / probe_s
