"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a shared host the CPU speed of one process moves by tens of percent within
seconds, and process and wall time move together, so the slow-down is in the
hardware, not in scheduling.  A fixed pure-Python kernel, run between
requests, measures that speed: integer and bit arithmetic like the searches,
argparse and json like the CLI and certificates.  Every timing is scaled by
``KERNEL_REF_S`` over the kernel's time around it, that is expressed at the
speed at which the kernel takes ``KERNEL_REF_S``.  Raw times are kept too.
"""

from __future__ import annotations

import argparse
import json
import time

KERNEL_REF_S = 0.015  # the kernel on an idle Xeon core under Python 3.11
PROBE_EVERY_S = 0.3


def kernel() -> None:
    s = 0
    for i in range(60000):
        s += (i * i) ^ (i >> 3)
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command")
        for n in range(12):
            sp = sub.add_parser(f"c{n}")
            for a in range(5):
                sp.add_argument(f"--a{a}", type=int, default=0)
        parser.parse_args(["c3", "--a1", "5"])
        json.loads(json.dumps({"a": list(range(200)), "b": {"c": "d" * 50}},
                              sort_keys=True, indent=2))


class Clock:
    """Probes the kernel at most every ``PROBE_EVERY_S`` between requests and
    scales the work time between two probes by their mean speed."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []  # start, end, kernel s
        self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.probes.append((start, end, end - start))

    def maybe_probe(self) -> int:
        """Probe if the last one is old; return the index of the last probe."""
        if time.perf_counter() - self.probes[-1][1] >= PROBE_EVERY_S:
            self.probe()
        return len(self.probes) - 1

    def factor(self, i: int) -> float:
        """Scale for work done between probe i and probe i + 1."""
        return 2 * KERNEL_REF_S / (self.probes[i][2] + self.probes[i + 1][2])

    def work(self) -> tuple[float, float]:
        """(raw, scaled) seconds between the first and the last probe,
        not counting the probes themselves."""
        raw = scaled = 0.0
        for i in range(len(self.probes) - 1):
            span = self.probes[i + 1][0] - self.probes[i][1]
            raw += span
            scaled += span * self.factor(i)
        return raw, scaled

    def speed(self) -> float:
        """Mean kernel speed relative to the reference (1.0 = reference)."""
        return KERNEL_REF_S * len(self.probes) / sum(p[2] for p in self.probes)
