"""Host-speed calibration.

The benchmark's reference host is a shared 2-vCPU VM whose speed for
pure-Python work changes by up to 2x, in phases of seconds to minutes.  A
fixed piece of pure-Python work of the kinds mediankit does (big-int bit
masks, exact rational sums, dict and list traffic) is timed next to every
measured call, and each timing is scaled by REFERENCE_S over the kernel's
time: the result is the call's time at the reference speed.  The kernel is
part of the benchmark, so a change to the program cannot move it.

Importing this module loads only ``math`` and ``time``, so a child process
can time ``import mediankit`` after it without loading anything mediankit
would load.
"""

import math
import time

# the kernel's time at the reference host's fast phase (Python 3.11)
REFERENCE_S = 0.004

_FULL = (1 << 256) - 1


def kernel_seconds() -> float:
    start = time.perf_counter()
    mask, num, den, table = 0, 0, 1, {}
    for i in range(1, 8000):
        mask = (mask << 3 | i) & _FULL
        table[i % 97] = mask.bit_count() + len(table)
        step = i % 11 + 1
        num, den = num * step + den * (i % 7 + 1), den * step
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return time.perf_counter() - start
