"""How fast the measured CPU runs, moment by moment.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by up to a third over tens of seconds: a fixed pure-Python loop
takes anywhere from 65 to 120 ms, in regimes that outlast a whole run, and
its CPU time drifts exactly as its wall time does, so neither clock
hides it. Ten runs of one pass each then spread by more than any bound
the benchmark may set, whatever the program does.

The measured process is pinned to one CPU and a sampler process is pinned
beside it. Every ``period_s`` the sampler runs a fixed burst of
interpreter work (about 1 ms, :func:`burst`) and records the CPU time the burst took
(``time.thread_time``, so time the scheduler gave the measured process
does not count). The mean burst time over an interval, divided by the
burst time of the reference host in ``spec.json``, is the host's
slowdown over that interval; a timing divided by it is the timing the
reference host would have given. The sampler costs the measured process
about 2% of its CPU, the same on every run.

Run as a script it is the sampler: ``hostspeed.py PERIOD_S`` prints
``<monotonic time> <burst CPU seconds>`` lines until it is terminated.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import List, Tuple


class _Node:
    __slots__ = ("value", "succ", "tag")

    def __init__(self, value: int):
        self.value = value
        self.succ = value + 1
        self.tag = None

    def step(self, other: "_Node") -> int:
        return self.value + other.succ


def burst(count: int = 1800) -> int:
    """A fixed amount of interpreter work shaped like the simulator's own:
    small slotted objects, method calls, attribute reads and tuples. Of the
    bursts tried (this one, a dict-and-arithmetic loop, and strided reads
    over a large list and dict), it tracked the speed of a scenario-long
    pass most closely."""
    prev = _Node(0)
    acc = 0
    for i in range(count):
        node = _Node(i)
        acc += node.step(prev)
        node.tag = (i, acc)
        prev = node
    return acc


def measure_cpu() -> int:
    """The CPU the measured processes are pinned to: the last one allowed."""
    return max(os.sched_getaffinity(0))


def other_cpus(cpu: int) -> set:
    """The CPUs left for the benchmark's own work (all of them on 1 CPU)."""
    return (os.sched_getaffinity(0) - {cpu}) or {cpu}


def spawn_on(cpu: int, command, **kwargs) -> subprocess.Popen:
    """Start ``command`` pinned to ``cpu``.

    A new process inherits the CPU mask of the thread that forks it, so
    this thread takes ``cpu`` for the moment of the fork and then gets
    its own mask back; no code runs in the child before ``exec``.
    """
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(command, **kwargs)
    finally:
        os.sched_setaffinity(0, mask)


class HostSpeed:
    """A running sampler and the samples it has taken so far."""

    def __init__(self, cpu: int, period_s: float, reference_s: float):
        self.reference_s = reference_s
        self._samples: List[Tuple[float, float]] = []
        self._lock = threading.Lock()
        self._proc = spawn_on(
            cpu, [sys.executable, __file__, repr(period_s)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self._proc.stdout:
            at, cpu_s = line.split()
            with self._lock:
                self._samples.append((float(at), float(cpu_s)))

    def slowdown(self, start: float, end: float) -> Tuple[float, int]:
        """Mean slowdown against the reference host over ``[start, end]``.

        ``start`` and ``end`` are ``time.monotonic()`` readings of any
        process on this machine. Returns the factor and the sample count.
        An interval no sample fell in takes the nearest sample on each side.
        """
        with self._lock:
            samples = list(self._samples)
        if not samples:
            raise RuntimeError("the host-speed sampler has taken no sample")
        inside = [cpu_s for at, cpu_s in samples if start <= at <= end]
        if not inside:
            before = [s for s in samples if s[0] < start]
            after = [s for s in samples if s[0] > end]
            inside = [s[1] for s in (before[-1:] + after[:1])]
        return sum(inside) / len(inside) / self.reference_s, len(inside)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()
        self._reader.join()
        self._proc.stdout.close()


def sample(period_s: float) -> None:
    burst()
    while True:
        started = time.thread_time()
        burst()
        spent = time.thread_time() - started
        print(f"{time.monotonic():.6f} {spent:.9f}", flush=True)
        time.sleep(period_s)


if __name__ == "__main__":
    import signal

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        sample(float(sys.argv[1]))
    except (BrokenPipeError, KeyboardInterrupt):
        pass
