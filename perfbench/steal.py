"""Time the hypervisor stole from the CPU the benchmark runs on.

On a shared host the hypervisor at times runs other guests while this
one has work ready. `/proc/stat` counts that time as steal, per CPU.
Contention comes in episodes that last minutes, longer than a run, and
while it lasts every time the benchmark measures grows by the stolen
time, which is not the program's doing. The benchmark and every process
it starts run on one CPU (`pin`), so the steal counted on that CPU over
an interval is the time their work was held up in it. Every time the
benchmark reports is wall time less that steal (the record keeps the
wall time too). The counter ticks in 1/CLK_TCK s (10 ms), so one
operation's correction is coarse, but it is right on average, and on a
quiet host it is zero.
"""

from __future__ import annotations

import os
import time

TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")
_cpu_label = "cpu"      # the /proc/stat line to read: cpuN once pinned


def pin() -> int:
    """Run this process, and every process it starts from now on, on
    the lowest CPU it may use; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    global _cpu_label
    _cpu_label = f"cpu{cpu}"
    return cpu


def stolen_ms() -> float:
    """Steal on the pinned CPU (all CPUs before `pin`) since boot, in
    ms; 0.0 without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields[0] == _cpu_label:
                    return int(fields[8]) * TICK_MS if len(fields) > 8 \
                        else 0.0
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def mark() -> tuple[float, float]:
    """(perf_counter s, stolen ms) now."""
    return time.perf_counter(), stolen_ms()


def elapsed_ms(a: tuple[float, float],
               b: tuple[float, float]) -> tuple[float, float]:
    """(wall ms, wall ms less steal) from mark `a` to mark `b`."""
    wall = (b[0] - a[0]) * 1000.0
    return wall, wall - (b[1] - a[1])
