"""Host-speed calibration for the benchmark's end-to-end times.

On a shared machine host speed drifts by tens of percent over minutes.
``run.py`` times a fixed pure-Python loop that shares no code with the
simulator before the first operation and after each one, and scales
each operation's host times by ``REFERENCE_S`` over the mean of the
calibrations around it: they read as *reference-host seconds*, as on a
host where the loop takes ``REFERENCE_S``. The loop must never change
with the simulator.

A sweep keeps every CPU busy, and on a host whose CPUs share a
physical core or a quota its speed differs from one CPU's. So a
``Calibrator`` for ``procs`` CPUs runs the loop in this process and in
``procs - 1`` helper processes at once, and reports the mean.

Run as a script, this file is such a helper: each line on stdin starts
one calibration, whose seconds it prints; it exits at end of input.
"""

import statistics
import subprocess
import sys
import time

LOOPS = 200_000
REPEATS = 5
REFERENCE_S = 0.02
#: Seconds to wait for a helper to exit once its input is closed.
STOP_TIMEOUT = 10.0


def calibrate():
    """Seconds the loop takes in this process right now (median)."""
    samples = []
    for _ in range(REPEATS):
        acc = 0
        start = time.perf_counter()
        for i in range(LOOPS):
            acc = (acc + i * 31) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Calibrator:
    """Times the loop on ``procs`` CPUs at once; a context manager that
    stops its helper processes on exit."""

    def __init__(self, procs=1):
        self.helpers = [
            subprocess.Popen([sys.executable, __file__],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for _ in range(procs - 1)
        ]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in self.helpers:
            proc.stdin.close()
        for proc in self.helpers:
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def measure(self):
        """Mean seconds of the loop, run in every process at once."""
        for proc in self.helpers:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        own = calibrate()
        times = [own] + [float(proc.stdout.readline())
                         for proc in self.helpers]
        return statistics.mean(times)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(calibrate(), flush=True)
