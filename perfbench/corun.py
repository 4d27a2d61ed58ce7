"""Host-speed reference for the end-to-end timings.

A shared 2-vCPU host changes the speed of each vCPU by ±20 % within a
second or two, and the two vCPUs do so independently, so the raw wall or
CPU time of one CLI run spreads by about as much.  To take the host's
speed out of the figure, the benchmark pins itself and every child to one
CPU and, while the child runs, works through a fixed pure-Python reference
job in small units.  The scheduler shares that CPU between the two in
slices of a few milliseconds, so both see the same speed at every moment.
The child's cost is then its CPU time divided by the reference job's CPU
time per unit, which is a count of reference units and does not depend on
how fast the host happened to be.  Times a user sees are that count times
``REF_UNIT_S``, the reference unit's CPU time on the reference host, so
they read as seconds on that host.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import dataclass

# CPU seconds of one reference unit on the reference host: a 2-vCPU Xeon
# VM with Python 3.11.7, its median over about a minute of units.
REF_UNIT_S = 0.00062

_LINES = [f"20240102 17{i % 60:02d}{i % 53:02d} {4700 + i % 97}.{i % 4 * 25:02d} {i % 13}"
          for i in range(500)]


def reference_unit() -> int:
    """One unit of the reference job: parse tick-like lines, fold, loop."""
    totals: dict[int, float] = {}
    for line in _LINES:
        _, hms, price, size = line.split()
        key = int(hms) % 977
        totals[key] = totals.get(key, 0.0) + float(price) * int(size)
    acc = len(totals)
    for i in range(3000):
        acc += i * i % 7
    return acc


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Corun:
    """One child run beside the reference job."""

    wall_s: float        # spawn to exit
    cpu_s: float         # child's user+sys CPU, from its own rusage
    rss_mb: float        # child's own ru_maxrss
    code: int
    ref_cpu_s: float     # CPU the reference job got while the child ran
    ref_units: int

    @property
    def _unit_s(self) -> float:
        return self.ref_cpu_s / self.ref_units

    @property
    def cpu_ref_s(self) -> float:
        """The child's CPU time in reference-host seconds."""
        return self.cpu_s / self._unit_s * REF_UNIT_S

    @property
    def wall_ref_s(self) -> float:
        """Spawn to exit less the reference job's share, in reference-host seconds."""
        return (self.wall_s - self.ref_cpu_s) / self._unit_s * REF_UNIT_S


def run_beside(argv: list[str], timeout_s: float, **popen) -> Corun:
    """Start ``argv`` and run reference units until it exits; kill it after ``timeout_s``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, **popen)
    c0 = time.process_time()
    units = 0
    while True:
        reference_unit()
        units += 1
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - t0 > timeout_s:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
    wall = time.perf_counter() - t0
    ref_cpu = time.process_time() - c0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Corun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, ref_cpu, units)
