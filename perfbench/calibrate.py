"""Host speed: a fixed reference workload timed beside the passes.

The measuring host shares its machine with other tenants, and its speed
drifts while the benchmark runs, by up to 2x over minutes: the same pass
takes twice the CPU time, not twice the wall time.  No averaging inside
one run removes a drift that outlasts the run, so the benchmark times
this fixed workload between its passes, on every CPU, and reports
throughput and set-up time at a reference host speed as well as raw
(``run.py``).

A reference unit does two kinds of Python work the program does: it
walks a shuffled ring of objects much larger than the CPU caches,
reading attributes and updating a small dict at each one, and it runs
a small generator scheduler whose every step is sent to subscribers
and kept.  The first tracks the memory system other tenants share, the
second the interpreter's own loop (see ``NOTES.md`` for how well each
tracked the passes).  It is the benchmark's own code and does not
change between the commits compared.
"""

from __future__ import annotations

import gc
import os
import random
import time
from statistics import median
from typing import Callable, Dict, Iterator, List

#: objects in the ring (about 40 MB, more than the CPU caches hold)
RING_SIZE = 100_000
#: ring nodes visited per reference unit
UNIT_STEPS = 20_000
#: scheduler threads and the items each handles, per reference unit
THREADS = 4
ITEMS = 1000
#: reference units per calibration slice (about 0.1 s)
SLICE_UNITS = 2
#: speed (reference units per second) that normalized figures assume:
#: about the measuring host's median speed while the benchmark ran
REFERENCE_SPEED = 21.0


class _Node:
    def __init__(self, value: int) -> None:
        self.value = value
        self.counts: Dict[int, int] = {}
        self.next = self


class _Event:
    __slots__ = ("step", "thread", "kind")

    def __init__(self, step: int, thread: str, kind: str) -> None:
        self.step = step
        self.thread = thread
        self.kind = kind


class _Tally:
    def __init__(self) -> None:
        self.by_kind: Dict[str, int] = {}

    def on_event(self, event: _Event) -> None:
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1


def _thread(items: int, box: List[int]) -> Iterator[str]:
    for i in range(items):
        yield "acquire"
        box.append(i)
        yield "release"


def schedule(seed: int, trace: List[_Event]) -> int:
    """Run :data:`THREADS` generator threads under a seeded random
    scheduler, sending every step to two subscribers and keeping it in
    ``trace``; returns the number of steps."""
    rng = random.Random(seed)
    box: List[int] = []
    threads = {f"t{i}": _thread(ITEMS, box) for i in range(THREADS)}
    subscribers: List[Callable[[_Event], None]] = [_Tally().on_event, _Tally().on_event]
    step = 0
    while threads:
        name = rng.choice(sorted(threads))
        try:
            kind = next(threads[name])
        except StopIteration:
            del threads[name]
            continue
        event = _Event(step, name, kind)
        trace.append(event)
        for deliver in subscribers:
            deliver(event)
        step += 1
    return step


class Reference:
    """The reference work: build once, then time :meth:`speed`."""

    def __init__(self, size: int = RING_SIZE) -> None:
        self.nodes = [_Node(i) for i in range(size)]
        order = list(range(size))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            self.nodes[here].next = self.nodes[there]
        # the ring never becomes garbage: keep it out of every collection
        gc.collect()
        gc.freeze()

    def walk(self, start: int) -> int:
        """Walk :data:`UNIT_STEPS` nodes from node ``start``; returns a
        checksum so the work cannot be skipped."""
        node = self.nodes[start % len(self.nodes)]
        total = 0
        for _ in range(UNIT_STEPS):
            total += node.value
            node.counts[total & 7] = total
            node = node.next
        return total

    def unit(self, i: int, trace: List[_Event]) -> int:
        """Reference unit ``i``: one ring walk and one scheduler run."""
        return self.walk(i * UNIT_STEPS) + schedule(i, trace)

    def speed(self, units: int = SLICE_UNITS) -> float:
        """Reference units per second on the calling CPU, now."""
        trace: List[_Event] = []
        started = time.perf_counter()
        for i in range(units):
            self.unit(i, trace)
        return units / (time.perf_counter() - started)

    def sample(self, seconds: float) -> Dict[int, List[float]]:
        """Speeds of slices run on each CPU this process may use in turn,
        for about ``seconds`` and at least one slice per CPU, by CPU."""
        cpus = sorted(os.sched_getaffinity(0))
        speeds: Dict[int, List[float]] = {cpu: [] for cpu in cpus}
        deadline = time.monotonic() + seconds
        turn = 0
        try:
            while turn < len(cpus) or time.monotonic() < deadline:
                cpu = cpus[turn % len(cpus)]
                os.sched_setaffinity(0, {cpu})
                speeds[cpu].append(self.speed())
                turn += 1
        finally:
            os.sched_setaffinity(0, cpus)
        return speeds


def host_speed(*samples: Dict[int, List[float]]) -> float:
    """The host's speed over ``samples``: each CPU's median slice speed,
    averaged over the CPUs.

    The CPUs' speeds differ, often by 1.5x for minutes (other tenants
    load some cores more than others), so the slices form one cluster
    per CPU and their overall median would jump between clusters.  A
    process spread evenly over the CPUs in time, as a rotated inline
    pass is and a pooled pass's processes are, runs at the mean of their
    speeds.
    """
    per_cpu: Dict[int, List[float]] = {}
    for sample in samples:
        for cpu, speeds in sample.items():
            per_cpu.setdefault(cpu, []).extend(speeds)
    return sum(median(speeds) for speeds in per_cpu.values()) / len(per_cpu)
