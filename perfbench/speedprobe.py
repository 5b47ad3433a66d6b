"""CPU-speed probe: times one fixed unit of work, again and again.

    python3 perfbench/speedprobe.py SAMPLES_PATH

On a shared virtual machine the speed of a CPU changes by up to 2x from
one few-second step to the next, and the two CPUs of one machine change
independently of each other.  So run.py pins itself, the program it
measures and this probe to one CPU.  Every SLEEP_S the probe wakes, runs
`unit()` and appends "<start monotonic_ns> <duration ns>" to SAMPLES_PATH,
until it is terminated or its parent exits.  `Probe.speed(t0, t1)` is then
the mean of REFERENCE_UNIT_S / duration over the samples that started in
[t0, t1): the CPU's speed during that interval, relative to a reference
speed.  Wall time times speed is the time the interval would have taken at
reference speed.

The unit mixes the kinds of work the program does (interpreter loops, dict
and string work, JSON, small numpy SVDs).  It never changes with the
program, so a faster program still reads faster.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

SLEEP_S = 0.02
STARTUP_TIMEOUT_S = 30
# Duration of one unit at reference speed: about the median on a shared
# 2-CPU virtual machine (Python 3.11, numpy 2.4), so reported seconds stay
# close to wall seconds there.
REFERENCE_UNIT_S = 0.003

_MATRICES = np.random.default_rng(0).random((5, 28, 20))
_WORDS = [f"L{i % 20:03d}-ap{i % 4}" for i in range(1500)]


def unit() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    counts: dict[str, int] = {}
    for i, word in enumerate(_WORDS):
        counts[word] = counts.get(word, 0) + i
    rows = sorted((v, k) for k, v in counts.items())
    total += len(json.loads(json.dumps([_WORDS[:300], rows])))
    total += len(",".join(_WORDS[:500]).split(","))
    for m in _MATRICES:
        np.linalg.svd(m, full_matrices=False)
    return total


class Probe:
    """Runs the probe in a child process for the life of a `with` block."""

    def __init__(self, samples_path: str):
        self.path = samples_path
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        open(self.path, "w").close()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        )
        # Wait for the first sample, so that the probe's own start-up does not
        # share the CPU with the first timed interval.
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while os.path.getsize(self.path) == 0:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()

    def speed(self, t0_ns: int, t1_ns: int) -> float:
        """Mean speed, relative to reference, over the samples started in [t0_ns, t1_ns)."""
        speeds = []
        with open(self.path) as fh:
            for line in fh:
                fields = line.split()
                if len(fields) != 2:  # the probe may be writing this line right now
                    continue
                start, duration = int(fields[0]), int(fields[1])
                if t0_ns <= start < t1_ns:
                    speeds.append(REFERENCE_UNIT_S * 1e9 / duration)
        if not speeds:
            raise RuntimeError("the speed probe took no sample in the interval")
        return statistics.fmean(speeds)


def main(samples_path: str) -> None:
    parent = os.getppid()
    with open(samples_path, "a", buffering=1) as out:
        while os.getppid() == parent:  # stop by itself if run.py dies without terminating it
            start = time.monotonic_ns()
            unit()
            out.write(f"{start} {time.monotonic_ns() - start}\n")
            time.sleep(SLEEP_S)


if __name__ == "__main__":
    main(sys.argv[1])
