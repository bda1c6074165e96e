"""The benchmark's own programs, loaded through the ``module:function``
workload spec (``programs:kernel_long``, ``programs:prims_faults``).

Each function is a ``ProgramFactory``: it takes a scheduler and returns
an unrun kernel.  They use only the public ``repro.vm`` and
``repro.components`` API.
"""

from __future__ import annotations

from repro.vm import Kernel, Yield

#: items the kernel-long producer sends (the Ext-C baseline shape:
#: 20,651 steps and 48,600 events at seed 1)
KERNEL_LONG_ITEMS = 2000


def kernel_long(scheduler) -> Kernel:
    """Monitor-only producer-consumer: one producer sends
    :data:`KERNEL_LONG_ITEMS` one-character items to one consumer."""
    from repro.components import ProducerConsumer

    n = KERNEL_LONG_ITEMS
    kernel = Kernel(scheduler=scheduler, max_steps=200 * n + 10_000)
    pc = kernel.register(ProducerConsumer())

    def producer():
        for i in range(n):
            yield from pc.send(chr(97 + i % 26))

    def consumer():
        for _ in range(n):
            yield from pc.receive()

    kernel.spawn(producer, name="p")
    kernel.spawn(consumer, name="c")
    return kernel


def prims_faults(scheduler) -> Kernel:
    """Four components in one kernel: the ``pc`` shape over
    ``TimeoutReturnProducerConsumer`` (consumers ``c0..c2``, producers
    ``p1``/``p2``) beside the ``sem``, ``rw`` and ``barrier-meet`` shapes
    over the native semaphore, rw-lock and barrier.

    The seeded EV-TMO bug lives in the producer-consumer; the native
    primitives are the clean control.
    """
    from repro.components.faulty import TimeoutReturnProducerConsumer
    from repro.components.native import (
        NativeBarrier,
        NativeReadWriteLock,
        NativeSemaphore,
    )

    kernel = Kernel(scheduler=scheduler, max_steps=3000)
    pc = kernel.register(TimeoutReturnProducerConsumer())
    sem = kernel.register(NativeSemaphore())
    rw = kernel.register(NativeReadWriteLock())
    barrier = kernel.register(NativeBarrier(3))

    def consumer():
        yield from pc.receive()

    def producer(payload):
        yield from pc.send(payload)

    def worker():
        yield from sem.acquire()
        yield Yield()
        yield from sem.release()

    def reader():
        yield from rw.start_read()
        yield Yield()
        yield from rw.end_read()

    def writer():
        yield from rw.start_write()
        yield Yield()
        yield from rw.end_write()

    def party():
        index = yield from barrier.arrive()
        return index

    for i in range(3):
        kernel.spawn(consumer, name=f"c{i}")
    kernel.spawn(producer, "ab", name="p1")
    kernel.spawn(producer, "c", name="p2")
    for i in range(3):
        kernel.spawn(worker, name=f"u{i}")
    for i in range(2):
        kernel.spawn(reader, name=f"r{i}")
    for i in range(2):
        kernel.spawn(writer, name=f"w{i}")
    for i in range(3):
        kernel.spawn(party, name=f"t{i}")
    return kernel
