"""CPU-speed probe: normalises measured times for a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of one CPU
drifts by tens of percent over tens of seconds, which swamps the
differences a benchmark is meant to resolve. A :class:`SpeedProbe` runs
one small process, pinned to the measured CPU, that times a fixed
Python-and-NumPy kernel every :data:`INTERVAL` seconds (about 1% of the
CPU) and logs ``(time.monotonic(), seconds)``. :meth:`SpeedProbe.factor`
turns the kernel times logged during an interval into a speed factor:
their median over :data:`REFERENCE_KERNEL_S`. Dividing a wall time by the
factor gives the time the same work takes on a CPU that runs the kernel in
the reference time.

The kernel is the benchmark's own code, so no change to the package
measured can move it.

Run as a script, this module is the probe process itself::

    python3 perfbench/probe.py --cpu 0 --out probe.log
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["INTERVAL", "REFERENCE_KERNEL_S", "SpeedProbe"]

#: seconds between two kernel timings
INTERVAL = 0.05
#: kernel time that defines a factor of 1.0
REFERENCE_KERNEL_S = 5e-4
#: how far beyond an interval samples still describe it (short intervals)
MARGIN = 0.25


def _kernel(np, a, v) -> float:
    """A fixed mix of interpreter work and small array operations."""
    total = 0.0
    for i in range(40):
        x = a @ a[i % 64]
        total += float(x.sum())
        w = v * np.exp(1j * x[0])
        total += abs(w[3])
        table = {j: j * j for j in range(30)}
        total += table[7]
    return total


def _run(cpu: int, out: Path) -> None:
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    v = rng.standard_normal(1024) + 0j
    with open(out, "a", encoding="utf-8") as log:
        while True:
            start = time.perf_counter()
            _kernel(np, a, v)
            took = time.perf_counter() - start
            log.write(f"{time.monotonic()} {took}\n")
            log.flush()
            time.sleep(INTERVAL)


class SpeedProbe:
    """A probe process pinned to ``cpu``, logging to ``log``."""

    def __init__(self, cpu: int, log: Path) -> None:
        self.cpu = cpu
        self.log = log
        self._process: subprocess.Popen | None = None

    def start(self) -> SpeedProbe:
        self.log.parent.mkdir(parents=True, exist_ok=True)
        self.log.write_text("")
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--cpu", str(self.cpu),
             "--out", str(self.log)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30.0
        while not self._samples():
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("speed probe produced no samples")
            time.sleep(INTERVAL)
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()
            self._process.wait(timeout=30)
            self._process = None

    def __enter__(self) -> SpeedProbe:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _samples(self) -> list[tuple[float, float]]:
        samples = []
        for line in self.log.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:
                samples.append((float(parts[0]), float(parts[1])))
        return samples

    def factor(self, start: float, end: float) -> float:
        """Speed factor over ``[start, end]`` (``time.monotonic``): the
        median kernel time over the reference time."""
        samples = self._samples()
        inside = [t for at, t in samples if start - MARGIN <= at <= end + MARGIN]
        if not inside:  # nothing logged in the interval: the nearest sample
            inside = [min(samples, key=lambda s: abs(s[0] - end))[1]]
        return statistics.median(inside) / REFERENCE_KERNEL_S


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="CPU-speed probe process")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    _run(args.cpu, args.out)
