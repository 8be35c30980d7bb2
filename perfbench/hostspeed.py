"""A fixed reference task, timed between a workload's operations, to scale timings.

On a shared host the same pure-Python work runs 30-70 % slower in some
seconds or minutes than in others, and that drift is most of the spread
between runs of the same code. The benchmark times a fixed task of its own
(dict updates with tuple keys, a keyed sort, bytes building, a hash: the
kind of work the appnet code does) many times inside every epoch. A timing
the epoch made is then scaled by REFERENCE_S over the task's median in that
epoch: it reads as it would on a host that runs the task in REFERENCE_S. The task touches no
appnet code, so a change to the program moves the scaled timings as much as
the raw ones.

The task runs in the generator process between operations, while the
daemons are idle. It tracks the simulator's timings and connect_mix's
control-plane calls and daemon CPU, which are mostly Python, but not
gateway_stream's round trips or daemon CPU, much of which is kernel socket
copies; those stay unscaled.
"""

from __future__ import annotations

import hashlib
import time
from statistics import median

# About the task's median on a quiet 2-vCPU Intel Xeon guest (Python 3.11).
REFERENCE_S = 0.003

_DATA = [(i * 7919) % 10007 for i in range(3000)]


def _task() -> bytes:
    totals: dict[tuple[int, int], int] = {}
    for i, v in enumerate(_DATA):
        key = (v % 211, i & 7)
        totals[key] = totals.get(key, 0) + v
    ordered = sorted(totals.items(), key=lambda kv: (kv[1], kv[0]))
    blob = b"".join(k[0].to_bytes(2, "big") + v.to_bytes(4, "big") for k, v in ordered)
    return hashlib.sha256(blob).digest()


class Probe:
    """Wall and CPU seconds of each run of the reference task, in order."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _task()
        self.cpu.append(time.process_time() - cpu0)
        self.wall.append(time.perf_counter() - wall0)

    def mark(self) -> int:
        return len(self.wall)

    def scale(self, start: int, end: int, cpu: bool = False) -> float:
        """REFERENCE_S over the task's median between two marks."""
        samples = (self.cpu if cpu else self.wall)[start:end]
        if not samples:
            raise ValueError("no reference samples between the marks")
        return REFERENCE_S / max(median(samples), 1e-9)
