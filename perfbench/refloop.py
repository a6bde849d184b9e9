"""The reference loop: fixed work whose time tracks the machine's current speed.

On a shared host the speed of a CPU can change by a factor of two or more,
for anything from a second to minutes, when another tenant loads the same
core. Raw wall times then say more about the neighbours than about the
program. So the benchmark runs this short loop on the same CPU as the
measured process, just before it starts, every SAMPLE_EVERY_S while it
runs, and just after it ends (see spawn.py). It reports each time rescaled
to reference speed (see run.py's `Speed`): the time, minus the CPU time the
loop took from it, times REF_SECONDS over the loop's mean CPU time around it.

The loop's CPU time, not its wall time, is the measure: while the measured
process runs on the same CPU the scheduler shares the CPU between the two,
so the loop's wall time would depend on what the measured process does.

The loop's work resembles the package's work: exact fractions, a sort, a
count per value. It uses only the standard library, so no change to the
package under test can change it, and it runs with the garbage collector
off, so the sampling process's heap cannot change it either.
"""

import gc
import os
from fractions import Fraction
from time import thread_time

# The loop's CPU time at reference speed: its typical time in the fast regime
# of the machine the benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11).
REF_SECONDS = 0.005
SAMPLE_EVERY_S = 0.25

_N = 600


def reference_seconds() -> float:
    """The loop's CPU time, in seconds."""
    gc.disable()
    try:
        start = thread_time()
        values = sorted(Fraction(i % 97, 7 + i % 13) for i in range(_N))
        counts: dict[Fraction, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        sum(values, Fraction(0))
        return thread_time() - start
    finally:
        gc.enable()


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU.

    The speed regimes differ between CPUs, so the loop must share its CPU
    with the process it measures.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
