"""Host-speed correction for timings on a shared machine.

A container lent a few cores of a shared host can see that host's speed for
the same single-threaded Python code swing by 30-40% within seconds (a 2-core
container measured with Python 3.11 did).  A wall time alone then measures
the host as much as the program.

``Probe`` samples that speed from inside the process being timed: a
SIGALRM timer fires every INTERVAL_S of wall time, and its handler times a
fixed reference loop.  ``Probe.work_s(a, b)`` rescales the wall time between
two ``perf_counter`` readings to the time it would have taken on a host on
which the reference loop takes REF_PROBE_S: each stretch between two probes
is weighted by REF_PROBE_S over the duration of the probe that ends it, and
the probes' own time is left out.  So the result is still seconds of the
program's work, but on a host of fixed speed.

Run as a script, it runs a module the way ``python -m`` does (or a script,
when the name ends in ``.py``) with a probe running, and when that ends
writes the wall time and the time at reference speed to a JSON file:

    python3 perfbench/hostspeed.py OUT.json MODULE|SCRIPT.py ARGS...
"""

from __future__ import annotations

import json
import runpy
import signal
import statistics
import sys
from array import array
from time import perf_counter

INTERVAL_S = 0.04     # wall time between probes
PROBE_LOOPS = 2000    # iterations of the reference loop per probe
REF_PROBE_S = 5e-4    # one probe's duration on the reference host
WINDOW = 9            # probes whose median duration gives the speed at a point


_TABLE = {i: 7 * i + 1 for i in range(64)}


def _reference_loop(n: int) -> int:
    # interpreter work of the kind symbolic code does (dict lookups, integer
    # arithmetic, branches) that creates no object the garbage collector
    # tracks, so that probing does not change when the program's collections
    # run
    table = _TABLE
    acc = 0
    for i in range(n):
        acc = (acc + table[i & 63] * (i % 7)) & 0xFFFF
        if acc & 1:
            acc += 3
    return acc


class Probe:
    def __init__(self):
        # probe starts and durations; arrays of doubles, so that recording a
        # probe allocates nothing the garbage collector tracks either
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        _reference_loop(PROBE_LOOPS)
        self.durations.append(perf_counter() - t)
        self.starts.append(t)

    def start(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def work_s(self, a: float, b: float) -> float:
        """Wall time from a to b, less the probes' own time, at reference speed.

        The speed of the stretch before each probe is taken from the median
        duration of the WINDOW probes around it, so that a probe the kernel
        preempted does not stand for a whole stretch.  The stretch after the
        last probe takes that probe's speed."""
        durations = self.durations
        half = WINDOW // 2

        def duration_near(i: int) -> float:
            return statistics.median(durations[max(0, i - half):i + half + 1])

        inside = [i for i, (s, d) in enumerate(zip(self.starts, durations))
                  if a <= s and s + d <= b]
        if not inside:
            raise RuntimeError(f"no host-speed probe ran in {b - a:.3f} s")
        total, edge = 0.0, a
        for i in inside:
            total += (self.starts[i] - edge) * REF_PROBE_S / duration_near(i)
            edge = self.starts[i] + durations[i]
        return total + (b - edge) * REF_PROBE_S / duration_near(inside[-1])


def main(argv: list[str]) -> int:
    """Run module or script argv[1] as __main__ with argv[2:] as its arguments."""
    out, target, args = argv[0], argv[1], argv[2:]
    probe = Probe().start()
    t0 = perf_counter()
    code = 0
    try:
        sys.argv = [target, *args]
        if target.endswith(".py"):
            runpy.run_path(target, run_name="__main__")
        else:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        t1 = perf_counter()
        probe.stop()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({"wall_s": t1 - t0, "work_s": probe.work_s(t0, t1)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
