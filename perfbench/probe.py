"""The host-speed probe: a process that times one fixed piece of
pure-Python work, again and again, at a low duty cycle.

Usage: ``python probe.py``; runs until SIGTERM, then prints one JSON
list of ``[at_ns, cost_ns]`` pairs: when each timing began
(``time.perf_counter_ns``, the CLOCK_MONOTONIC the load generator's
samples use too) and the CPU time the work took.

On a shared host the speed of the vCPUs moves by up to about 1.6x
over seconds, both vCPUs together, as other tenants come and go; every
timing of a run moves with it.  CPU time, not wall time, is taken so
that the probe measures how fast the host runs Python, not how busy
the benchmark keeps the two CPUs (a per-second median of the probe's
costs followed the per-second speed of a busy process beside it with
a correlation of 0.96).  ``run.py`` scales every timing of a run by
them to one reference speed (``harness.HostSpeed``).
"""

from __future__ import annotations

import json
import signal
import sys
import time

#: iterations of the work: about 1 ms at full speed
WORK = 15_000
#: pause after each timing: the probe keeps ~4% of one CPU
PAUSE_S = 0.024


class Stop(Exception):
    pass


def work() -> int:
    total = 0
    for i in range(WORK):
        total += i * i % 7
    return total


def _stop(*_args) -> None:
    raise Stop


def main() -> int:
    points: list[list[int]] = []
    signal.signal(signal.SIGTERM, _stop)
    try:
        while True:
            at = time.perf_counter_ns()
            cpu = time.thread_time_ns()
            work()
            points.append([at, time.thread_time_ns() - cpu])
            time.sleep(PAUSE_S)
    except Stop:
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    json.dump(points, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
