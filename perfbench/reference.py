"""A fixed reference routine that gauges the host's current speed.

The benchmark runs on shared machines whose speed drifts by a fifth or
more over tens of seconds, and every workload here is bound by the
Python interpreter.  :class:`ReferencePool` times a small, fixed piece
of interpreter-bound work of the same kind (a heap-driven event loop
over slotted objects, dict and list updates, sorting, hashing) that
depends on nothing in ``src/``.  It runs the piece at once in two
helper processes, one per core of the two-core hosts the benchmark
was designed on, because a neighbour slowing either core slows the
benchmark: the single-process workloads move between cores and the
hunt uses both.

A run samples the pool between units and divides each unit's time by
the mean of the samples taken right before and right after it; the
mean of those ratios over the unit's
repetitions, times ``NOMINAL_SECONDS``, is the unit's time on a host
of nominal speed.  Set-up samples are scaled the same way.  On a
2-core VM this cut the spread of a hunt's shards/s over six seeds
from 24% to 4%.  The routine must never change: figures are
comparable only between runs that used the same routine.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import multiprocessing
import random  # repro-lint: disable=DET001 - must not depend on src/
import time

__all__ = ["NOMINAL_SECONDS", "ReferencePool"]

#: About the routine's time on a quiet 2-core x86-64 VM (CPython
#: 3.11): scaled times read as seconds on such a host.
NOMINAL_SECONDS = 0.025

#: Helper processes timed at once, one per core.
PROCESSES = 2


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: float, key: str, value: int) -> None:
        self.time = time
        self.key = key
        self.value = value


def _work(events: int = 2000) -> str:
    rng = random.Random(20160628)  # repro-lint: disable=DET001
    heap: list = []
    views: dict[str, list[int]] = {}
    log: list = []
    sequence = 0
    for index in range(events):
        sequence += 1
        heapq.heappush(heap, (rng.random() * 100.0, sequence,
                              _Event(0.0, f"k{index % 97}", index)))
    while heap:
        _, _, event = heapq.heappop(heap)
        view = views.setdefault(event.key, [])
        view.append(event.value)
        if len(view) > 8:
            del view[0]
        log.append((event.key, tuple(sorted(view))))
        if event.value % 3:
            sequence += 1
            heapq.heappush(heap, (
                event.time + rng.expovariate(1.0), sequence,
                _Event(event.time + 1.0, f"k{event.value % 97}",
                       event.value // 2)))
    digest = hashlib.sha256()
    for entry in log[::7]:
        digest.update(repr(entry).encode("utf-8"))
    return digest.hexdigest()


def _timed_work() -> float:
    """The routine's wall seconds, with the cyclic collector paused."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _helper(connection) -> None:
    """Time the routine whenever asked; stop on ``None``."""
    while connection.recv() is not None:
        connection.send(_timed_work())
    connection.close()


class ReferencePool:
    """Helper processes that time the reference routine together.

    Start it before the measured work, while the process is small: the
    helpers are forked copies and stay alive until :meth:`close`, so
    they never count in the run's finished-children memory figure
    taken before that.
    """

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(PROCESSES):
            ours, theirs = context.Pipe()
            helper = context.Process(target=_helper, args=(theirs,),
                                     daemon=True)
            helper.start()
            theirs.close()
            self._helpers.append((helper, ours))

    def sample(self) -> float:
        """Mean seconds of the routine, run at once in every helper."""
        for _, connection in self._helpers:
            connection.send(True)
        return sum(connection.recv()
                   for _, connection in self._helpers) / PROCESSES

    def close(self) -> None:
        """Stop every helper and wait until each has ended."""
        for helper, connection in self._helpers:
            try:
                connection.send(None)
            except OSError:
                pass
            connection.close()
            helper.join(timeout=10)
            if helper.is_alive():
                helper.kill()
                helper.join()
        self._helpers.clear()

    def __enter__(self) -> "ReferencePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
