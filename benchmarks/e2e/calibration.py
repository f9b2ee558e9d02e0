"""Host-speed calibration for the end-to-end benchmark.

The benchmark runs on shared virtual machines whose speed changes as
other tenants load the host: a fixed loop of pure Python runs at one of
two speeds, about 1.7 times apart, switching within a second, and the
share of time spent at the slow speed changes from one minute to the
next.  The program's own operations follow.  A run therefore also times
a fixed kernel of pure Python between its operations, and the
end-to-end times are reported in reference seconds: measured seconds
scaled by :data:`REFERENCE_SECONDS` over the kernel's
:func:`trimmed_mean` time in the same run.  Set-up times are scaled
by the same factor: the kernel's time in a burst right after set-up
follows the short switches of speed, not the set-up's, and spread the
scaled set-up times more than the measured ones.  The kernel depends on
nothing in ``src/``, so a change to the program moves the reported
times as it moves the measured ones.

The kernel does what the analysis does most -- builds a graph of small
objects, walks it, and computes reachability with sets and frozensets --
because a slow period on the host slows such code more than it slows a
tight arithmetic loop.  A workload that keeps several processes busy at
once is calibrated with as many copies of the kernel running at once,
because two busy vCPUs slow each other as well.

Run as a script, this module is one such copy: it runs the kernel once
for every byte it reads and answers with one byte.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

#: Time of :func:`kernel` on a 2-vCPU Intel Xeon at 2.1 GHz while no
#: other tenant slows it, so a reference second is about a second there.
REFERENCE_SECONDS = 0.005

#: Least time between two samples of the kernel, so sampling costs a few
#: percent of a run however short its operations are.
INTERVAL_SECONDS = 0.1

#: Share of samples :func:`trimmed_mean` drops at each end.
TRIM = 0.2


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the lowest and highest :data:`TRIM`.
    Unlike the median it moves smoothly with the share of slow samples
    when they cluster at two speeds; unlike the mean it ignores stalls."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class _Node:
    __slots__ = ("key", "successors", "weight")

    def __init__(self, key: int):
        self.key = key
        self.successors: list[_Node] = []
        self.weight = key % 7


def kernel(size: int = 3000, sets: int = 400) -> int:
    """A fixed amount of object-graph and set work; returns a checksum.
    It leaves no cyclic garbage behind, so it adds no work to the
    collections that run during the program's operations."""
    nodes = {key: _Node(key) for key in range(size)}
    for key, node in nodes.items():
        node.successors += (nodes[(key * 7 + 3) % size],
                            nodes[(key * 13 + 1) % size])
    seen: set[int] = set()
    stack = [nodes[0]]
    total = 0
    while stack:
        node = stack.pop()
        if node.key not in seen:
            seen.add(node.key)
            total += node.weight
            stack.extend(node.successors)
    for node in nodes.values():
        node.successors.clear()
    edges = {key: {(key * 7 + 3) % sets, (key * 11 + 5) % sets,
                   (key + 1) % sets} for key in range(sets)}
    reach = {}
    for root in range(0, sets, 25):
        frontier, closure = [root], {root}
        while frontier:
            following = []
            for source in frontier:
                for target in edges[source] - closure:
                    closure.add(target)
                    following.append(target)
            frontier = following
        reach[root] = frozenset(closure)
    ordered = sorted((a, b) for a in reach for b in reach
                     if reach[a] <= reach[b])
    return total + len(seen) + len(ordered)


class Calibration:
    """Times :func:`kernel` between a run's operations, at most once per
    :data:`INTERVAL_SECONDS`, so its samples spread over the whole run.
    With ``jobs`` above 1, each sample runs the kernel in this process
    and in ``jobs - 1`` helper processes at once and takes the time until
    all have finished.  The cyclic garbage collector is off while the
    kernel runs: its allocations would otherwise start a collection of
    the garbage the last operation left, which costs that operation, not
    the host.  :meth:`close` stops the helpers."""

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self.samples: list[float] = []
        self._last = float("-inf")
        self._helpers: list[subprocess.Popen] = []

    def sample(self) -> None:
        """Time the kernel if the last sample is old enough."""
        if time.perf_counter() - self._last >= INTERVAL_SECONDS:
            self.measure()

    def measure(self) -> None:
        """Time the kernel once."""
        if len(self._helpers) < self.jobs - 1:
            self._start_helpers()
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for helper in self._helpers:
                helper.stdin.write(b"k")
                helper.stdin.flush()
            kernel()
            for helper in self._helpers:
                if helper.stdout.read(1) != b"k":
                    raise RuntimeError("a calibration helper stopped")
            self._last = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(self._last - started)

    def _start_helpers(self) -> None:
        while len(self._helpers) < self.jobs - 1:
            helper = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE)
            self._helpers.append(helper)
            if helper.stdout.read(1) != b"r":
                self.close()
                raise RuntimeError("a calibration helper did not start")

    def scale(self) -> float:
        """Reference seconds per measured second in this run."""
        return REFERENCE_SECONDS / trimmed_mean(self.samples)

    def close(self) -> None:
        """Stop the helper processes and wait for them."""
        while self._helpers:
            helper = self._helpers.pop()
            helper.stdin.close()
            helper.wait()
            helper.stdout.close()


def _helper() -> None:
    sys.stdout.buffer.write(b"r")
    sys.stdout.buffer.flush()
    while sys.stdin.buffer.read(1):
        collecting = gc.isenabled()
        gc.disable()
        kernel()
        if collecting:
            gc.enable()
        sys.stdout.buffer.write(b"k")
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    _helper()
