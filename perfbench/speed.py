"""Machine-speed probe, used to scale the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host.  Their speed changes by
20-40%, at times by a factor of two, for stretches of seconds to minutes as
the host's other tenants come and go, and such a change moves every timing
of a run alike, whatever the code.  So before and after every command, and
around every set-up sample, the benchmark times :func:`probe`: a fixed piece
of pure-Python work (small-integer arithmetic and big-integer multiply and
divide) that imports nothing.  The timings it reports are wall times
multiplied by :func:`factor` of the probes taken next to them, that is,
seconds at the machine speed at which the probe takes :data:`REFERENCE_S`.
Speed phases often last only a few seconds, so each command gets the probes
next to it rather than one factor per pass.

A change to ``boxeig`` cannot move the probe, so it moves a scaled time by
the same share as it moves the wall time on a machine of steady speed.  The
raw wall times and the factors are printed on the run's ``#`` lines.

The probe tracks ``boxeig`` only in part.  Its time and a command's
correlate about 0.6-0.9, and in log terms a speed change has moved serial
commands 1.1-1.6 times as much as the probe, so in a run whose speed
differs from the others a good part of the difference remains.  Adding
mpmath or Fraction work to the probe made it move more than ``boxeig`` in
some stretches and less in others, and no steadier on balance.
"""

from __future__ import annotations

import gc
import time

#: Probe time on the machine the first trajectory point was measured on
#: (2-vCPU Xeon VM, Python 3.11.7) at its usual speed.  A constant for good:
#: changing it rescales every timing and breaks comparison with the trajectory.
REFERENCE_S = 0.020

_A = 3**2000
_B = 7**1500


def _work() -> int:
    s = 0
    for i in range(75_000):
        s += i * i % 7
    for i in range(200):
        s ^= (_A * (_B + i)) // (_B - i) % 1_000_003
    return s


def probe() -> float:
    """Seconds the fixed work takes now (about 20 ms), with no garbage collection in it.

    The faster of two runs, because a run that the scheduler interrupts can
    take three times as long as its neighbours.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
        return min(times)
    finally:
        if enabled:
            gc.enable()


def factor(*probes: float) -> float:
    """Multiplier from wall seconds to reference seconds, given the probes taken next to them."""
    return REFERENCE_S * len(probes) / sum(probes)
