"""Host speed, measured by a fixed calibration loop.

The benchmark runs on a share of a host whose other tenants slow it down by
up to 60 % for stretches of half a minute or more, far longer than one
round of ops.  A run's raw wall times then say as much about the
neighbours as about the program.  So the benchmark measures the host's
speed next to every timing, with a loop of fixed work that uses only the
standard library (interpreted integer arithmetic, big-integer products,
dictionary stores: the kinds of work autratio does), and reports each time
divided by the slowdown the loop saw around it:

    adjusted = raw / slowdown,
    slowdown = (loop time now / REFERENCE_S) ** ELASTICITY

REFERENCE_S is the loop's time on an idle 2-vCPU Intel Xeon host (Python
3.11); an adjusted time is the time the same work takes on that host when
it is idle.  When the neighbours slow the loop down, autratio's ops slow
down more: over 150 pairs of an op and the loop around it, on one vCPU,
log op time rose 1.2 to 1.4 times as fast as log loop time for
render_table, find_exact and the oracle, and 1.0 times for a certified
approx_ray.  ELASTICITY = 1.3 gave the steadiest 10 s and 20 s window
medians for all four.  Nothing in the loop depends on the program, so a
change to the program moves the adjusted times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REFERENCE_S = 0.0031
ELASTICITY = 1.3
PROBES = 5  # loop runs per measurement; their median is taken

_BIG = 3**4000
_MOD = 7**4000


def _loop() -> int:
    s = 0
    for i in range(40_000):
        s += i * i % 7
    x = _BIG
    for _ in range(120):
        x = x * 12345678901234567 % _MOD
    d: dict[int, int] = {}
    for i in range(8_000):
        d[i & 255] = i
    return s + x % 2 + len(d)


def _time_loop() -> float:
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def slowdown() -> float:
    """The host's current slowdown against REFERENCE_S (1.0 when idle)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = [_time_loop() for _ in range(PROBES)]
    finally:
        if enabled:
            gc.enable()
    return (statistics.median(samples) / REFERENCE_S) ** ELASTICITY


for _ in range(3):  # let the interpreter specialise the loop before it is timed
    _loop()
