"""Host-speed probe: a fixed reference slice run at intervals inside a child.

The measuring host (2 vCPUs on a shared machine) changes speed in stretches
of seconds to minutes, by as much as a factor of two, in CPU time as much
as in wall time; the two vCPUs do not change together.  A time taken in
one stretch cannot be compared with one taken in another.  So every
measured child runs this probe: a timer signal interrupts the program every
``interval`` seconds, and the handler, on the same thread and so on the
same vCPU, runs a fixed reference slice (a Python loop and the small and
batched numpy products the program is made of) twice and times the second
run.  The slices sample the speed the program ran at, throughout its run.  A time is then reported at
the reference speed::

    adjusted = (wall - time spent in the probe) * REF_SLICE_S / mean slice time

``REF_SLICE_S`` is a usual slice time on the measuring host, so an
adjusted time is in seconds at that host's usual speed.  It is part of the
benchmark's definition: changing it rescales every time.  The raw times are
reported next to the adjusted ones.

Run a module or a script under the probe, as ``python -m`` or ``python``
would, and write the probe's totals to ``OUT`` when it ends::

    python3 perfbench/probe.py OUT 0.25 -m qsodyn verify --suite all --seed 7
    python3 perfbench/probe.py OUT 0.25 perfbench/worker.py --workload explore ...

A script run this way reads the running probe as ``probe.ACTIVE``.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
import time

import numpy as np

REF_SLICE_S = 0.0045       # a usual slice time on the measuring host

_RNG = np.random.default_rng(0)
_T = _RNG.random((6, 36))
_XS = _RNG.random((2000, 6))
_P = _RNG.random((6, 6, 6))
_X = _XS[0]

ACTIVE: "SpeedProbe | None" = None


def reference_slice() -> float:
    """The fixed work one probe sample times: about 4.5 ms on the measuring host."""
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) % 3.0
    for _ in range(80):
        acc += float((np.outer(_X, _X).ravel() @ _T.T)[0])
    for _ in range(2):
        acc += float(np.einsum("ni,nj,ijk->nk", _XS, _XS, _P, optimize=True)[0, 0])
    return acc


class SpeedProbe:
    """Times a reference slice on every SIGALRM of a repeating real-time timer."""

    def __init__(self, interval: float):
        self.interval = interval
        self.slices = 0
        self.slice_s = 0.0          # the timed slices
        self.probe_s = 0.0          # all of the probe's time, warm-up slices included

    def _on_alarm(self, signum, frame) -> None:
        # The program has just evicted the slice's code and data, the more so
        # the larger its own footprint.  An untimed slice brings them back,
        # so that the timed one measures the host's speed and not the program.
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        reference_slice()
        t2 = time.perf_counter()
        self.slice_s += t2 - t1
        self.probe_s += t2 - t0
        self.slices += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return self.slices, self.slice_s, self.probe_s

    def totals(self) -> dict:
        return {"slices": self.slices, "slice_s": self.slice_s, "probe_s": self.probe_s}


def adjust(wall_s: float, slices: int, slice_s: float, probe_s: float) -> float:
    """``wall_s`` less the probe's own time ``probe_s``, at the reference
    speed measured by ``slices`` timed slices that took ``slice_s``.

    With no slice in the span (a span shorter than the interval) the speed
    is unknown and the raw time is kept.
    """
    if slices == 0:
        return wall_s
    return (wall_s - probe_s) * REF_SLICE_S / (slice_s / slices)


def main() -> None:
    global ACTIVE
    out, interval, target, *args = sys.argv[1:]
    ACTIVE = SpeedProbe(float(interval))
    sys.modules.setdefault("probe", sys.modules[__name__])   # one probe for the script too
    code = 0
    ACTIVE.start()
    try:
        if target == "-m":
            sys.argv = [args[0], *args[1:]]
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *args]
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        ACTIVE.stop()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(ACTIVE.totals(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
