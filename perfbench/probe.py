"""Machine-speed probe: a fixed slice of work timed alongside the requests.

On a shared machine the speed a process gets swings by tens of percent
within seconds, as other tenants come and go. The worker times this probe
between requests, and run.py scales each request's wall time by how much
slower or faster the probe ran near it than PROBE_REF_S. The probe mixes
interpreted integer, string and dict work with small NumPy array work. It
never calls the package and keeps clear of the routines the package leans
on, so that a change to the package, which may leave those routines cold or
warm, does not move the probe along with the request time.
test_smoke.test_scaling_keeps_a_real_slowdown checks that doubling the work
of the same requests doubles their scaled time and leaves the probe put.
"""

from __future__ import annotations

import time

import numpy as np

# nominal probe time: a figure scaled by the probe is in wall seconds of a
# machine on which the probe takes this long
PROBE_REF_S = 0.0012
# the worker probes at most this often, and speed is read off the probes
# within WINDOW_S of a request; the speed swings within a second
PROBE_EVERY_S = 0.05
WINDOW_S = 0.3


def _work() -> int:
    # generic interpreted and NumPy work, kept clear of the routines the
    # package leans on (float formatting, logarithms, eigvalsh, einsum, quad)
    acc = 0
    table = {}
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    words = sorted(str(v) for v in table.values())
    acc += len("|".join(words))
    x = (np.arange(4096, dtype=np.float64) * 7919.0) % 4093.0
    acc += int(np.cumsum(np.sort(x))[-1])
    a = x[:576].reshape(24, 24) / 4093.0
    for _ in range(48):
        a = a @ a.T
        a /= float(a.max())
    return acc + int(a.sum())


def probe_s() -> float:
    """Wall time of one run of the probe."""
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


def scale(times, probe_t, probe_dt) -> np.ndarray:
    """Factor that turns wall time at each of `times` into reference time.

    It is PROBE_REF_S over the median duration of the probes within
    WINDOW_S, or of the nearest probe on each side when none is that close.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(probe_t)
    probe_t, probe_dt = np.asarray(probe_t)[order], np.asarray(probe_dt)[order]
    lo = np.searchsorted(probe_t, times - WINDOW_S)
    hi = np.searchsorted(probe_t, times + WINDOW_S)
    out = np.empty(len(times))
    for k, (a, b) in enumerate(zip(lo, hi)):
        if b == a:  # no probe in the window: widen it to the nearest one on each side
            a, b = max(a - 1, 0), min(b + 1, len(probe_t))
        out[k] = np.median(probe_dt[a:b])
    return PROBE_REF_S / out
