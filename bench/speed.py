"""Host speed, sampled next to the measurement, so that times can be put
at one reference speed.

On a shared VM a vCPU runs at full speed or about 1.6x slower for
seconds at a time, depending on what else the host runs on its core,
and now and then the hypervisor takes it away altogether (steal time).
The same compile then takes 15% longer or shorter from one run to the
next, which no amount of repetition inside a 15 s run averages out.

The benchmark runs on one CPU.  A sampler process pinned to it times a
fixed loop every 20 ms (under 1% of the CPU) and logs it with the CPU's
steal time.  A measured interval is put at the reference speed by the
mean of ``REFERENCE_S / sample`` over the samples taken during it, times
the share of it the CPU was not stolen: an interval run at full speed
keeps its wall time, one run at half speed, or half stolen, counts half.
A sample that lands on a stolen moment is delayed rather than slowed, so
the loop alone does not see steal time; ``/proc/stat`` does.

    python3 bench/speed.py --cpu N --log PATH    # the sampler (run.py starts it)
"""

from __future__ import annotations

import argparse
import bisect
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Wall time of one sample loop on an uncontended vCPU of the reference
#: machine (2-vCPU x86 VM): the 10th percentile of its samples, against
#: about 225 us in the slow phases.  A constant, so runs made at
#: different times, or with different code, are put at the same speed.
REFERENCE_S = 145e-6

PERIOD_S = 0.02
#: An interval shorter than a few sampling periods is widened by this on
#: each side, so it always has samples to go by.
PAD_S = 0.05
#: Steal time is counted in clock ticks (10 ms), so the stolen share of
#: an interval is taken over a window at least this long around it.
STEAL_WINDOW_S = 0.5
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT_S = 30.0

Sample = Tuple[float, float, int]  # start, loop time, steal ticks so far


def _sample_loop() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(1000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total ^= i * key
    return total


def steal_ticks(cpu: int) -> int:
    """Time the hypervisor has run something else while ``cpu`` was ready
    to run, in clock ticks since boot (0 where it is not accounted)."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                fields = line.split()
                return int(fields[8]) if len(fields) > 8 else 0
    raise RuntimeError(f"no {prefix.strip()} in /proc/stat")


def sample_until_parent_exits(cpu: int, log_path: str) -> None:
    """Sample until SIGTERM, or until the process that started this one
    is gone (killed before it could stop its sampler)."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(log_path, "w", buffering=1) as log:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            start = time.monotonic()
            _sample_loop()
            elapsed = time.monotonic() - start
            log.write(f"{start:.6f} {elapsed:.9f} {steal_ticks(cpu)}\n")


class Sampler:
    """The sampler process on ``cpu``, logging to ``log_path``."""

    def __init__(self, cpu: int, log_path: str):
        self.cpu = cpu
        self.log_path = log_path
        self.proc = None

    def __enter__(self) -> "Sampler":
        os.makedirs(os.path.dirname(self.log_path), exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu",
             str(self.cpu), "--log", self.log_path])
        try:
            deadline = time.monotonic() + START_TIMEOUT_S
            while not (os.path.exists(self.log_path)
                       and os.path.getsize(self.log_path) > 0):
                if (time.monotonic() > deadline
                        or self.proc.poll() is not None):
                    raise RuntimeError("speed sampler did not start")
                time.sleep(PERIOD_S)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


def read_log(log_path: str) -> "Scaler":
    """A scaler over the samples logged so far."""
    with open(log_path) as handle:
        rows = [line.split() for line in handle]
    return Scaler([(float(r[0]), float(r[1]), int(r[2]))
                   for r in rows if len(r) == 3])


class Scaler:
    def __init__(self, samples: Sequence[Sample]):
        if not samples:
            raise RuntimeError("no speed samples")
        self.samples = sorted(samples)
        self.times = [s[0] for s in self.samples]

    def _steal_at(self, t: float) -> float:
        """Steal ticks by time ``t``, interpolated between samples."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.samples[0][2]
        if i == len(self.samples):
            return self.samples[-1][2]
        (t0, _, s0), (t1, _, s1) = self.samples[i - 1], self.samples[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0)

    def stolen_share(self, start: float, end: float) -> float:
        half = max(end - start, STEAL_WINDOW_S) / 2
        mid = (start + end) / 2
        ticks = self._steal_at(mid + half) - self._steal_at(mid - half)
        return min(0.95, max(0.0, ticks / CLOCK_TICKS / (2 * half)))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over [start, end], the reference speed being 1."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if lo == hi:  # nothing near: the closest later (or last) sample
            lo = min(lo, len(self.samples) - 1)
            hi = lo + 1
        chosen: List[Sample] = self.samples[lo:hi]
        loop = sum(REFERENCE_S / dt for _, dt, _ in chosen) / len(chosen)
        return loop * (1.0 - self.stolen_share(start, end))

    def seconds(self, start: float, end: float) -> float:
        """The interval's length at the reference speed."""
        return (end - start) * self.speed(start, end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--log", required=True)
    args = parser.parse_args(argv)
    sample_until_parent_exits(args.cpu, args.log)
    return 0


if __name__ == "__main__":
    sys.exit(main())
