"""The monitor virtual machine kernel.

The kernel owns the monitors, the simulated threads, the abstract testing
clock, and the event trace.  Its run loop repeatedly asks the scheduler
for a runnable thread, resumes that thread's generator, and executes the
syscall the generator yields.  Every syscall is a scheduling point, so
the scheduler fully controls the interleaving — this is the determinism
the paper's testing method (and its ConAn lineage) requires, which real
JVM/CPython threads cannot provide.

Virtual time advances by one unit per syscall executed.  The abstract
clock (ConAn's ``await``/``tick``/``time``) is separate and only advances
on explicit :class:`~repro.vm.syscalls.Tick` syscalls (or automatically at
quiescence when ``auto_tick=True``).

Termination taxonomy of :meth:`Kernel.run` (see :class:`RunStatus`):

* ``COMPLETED`` — every thread terminated.
* ``DEADLOCK`` — quiescent with a cycle in the wait-for graph (threads
  blocked on locks held by each other): the classic FF-T2/FF-T4 outcome.
* ``STUCK`` — quiescent with live threads but no lock cycle: waiting
  threads nobody will notify (FF-T5), or clock waiters with no ticker.
* ``STEP_LIMIT`` — the step budget ran out (endless loop; FF-T4).
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .errors import (
    BrokenBarrierError,
    DeadlockError,
    IllegalMonitorStateError,
    StepLimitExceededError,
    ThreadCrashedError,
    UnknownSyscallError,
)
from .events import Event, EventKind, WakeReason
from .monitor import MonitorObject, SelectionPolicy
from .primitives import (
    RW_PREFERENCES,
    BarrierObject,
    RwLockObject,
    SemaphoreObject,
)
from .scheduler import FifoScheduler, Scheduler
from .syscalls import (
    Acquire,
    AwaitTime,
    BarrierAwait,
    CallBegin,
    CallEnd,
    GetTime,
    Interrupt,
    Notify,
    NotifyAll,
    Read,
    Release,
    RwAcquire,
    RwRelease,
    SemAcquire,
    SemRelease,
    Syscall,
    Tick,
    Wait,
    Write,
    Yield,
)
from .thread import SimThread, ThreadState
from .trace import Trace
from .waitq import find_cycle

__all__ = ["Kernel", "RunResult", "RunStatus", "current_kernel", "current_thread"]


# The executing kernel/thread, visible to instrumented component attribute
# access.  The VM is cooperatively single-threaded, so a module-level slot
# (not a threading.local) is correct and cheap.
_CURRENT: List[Tuple["Kernel", SimThread]] = []


def current_kernel() -> Optional["Kernel"]:
    """The kernel currently executing a thread, if any."""
    return _CURRENT[-1][0] if _CURRENT else None


def current_thread() -> Optional[SimThread]:
    """The simulated thread currently executing, if any."""
    return _CURRENT[-1][1] if _CURRENT else None


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    DEADLOCK = "deadlock"
    STUCK = "stuck"
    STEP_LIMIT = "step_limit"
    #: never produced by Kernel.run itself — assigned by wall-clock-bounded
    #: runners (repro.engine workers) when a run exceeds its time budget.
    TIMEOUT = "timeout"


@dataclass
class RunResult:
    """Outcome of a kernel run.

    Attributes:
        status: how the run ended.
        trace: the full event trace.
        steps: syscalls executed.
        thread_results: generator return value per completed thread.
        thread_states: final state name per thread.
        deadlock_cycle: the wait-for cycle when status is DEADLOCK.
        stuck_threads: live thread names when status is STUCK/DEADLOCK.
        crashed: names of threads that raised, with their exceptions.
        abort_reason: why the run was ended early via
            :meth:`Kernel.request_abort`, or None for a natural ending.
    """

    status: RunStatus
    trace: Trace
    steps: int
    thread_results: Dict[str, Any] = field(default_factory=dict)
    thread_states: Dict[str, str] = field(default_factory=dict)
    deadlock_cycle: List[str] = field(default_factory=list)
    stuck_threads: List[str] = field(default_factory=list)
    crashed: Dict[str, BaseException] = field(default_factory=dict)
    schedule_log: List[str] = field(default_factory=list)
    abort_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.COMPLETED and not self.crashed

    def raise_on_failure(self) -> "RunResult":
        """Raise the matching VM error unless the run completed cleanly."""
        if self.crashed:
            name, exc = next(iter(self.crashed.items()))
            raise ThreadCrashedError(name, str(exc)) from exc
        if self.status is RunStatus.DEADLOCK:
            raise DeadlockError(
                f"deadlock among threads {self.deadlock_cycle}", self.deadlock_cycle
            )
        if self.status is RunStatus.STUCK:
            from .errors import StuckThreadsError

            raise StuckThreadsError(
                f"threads stuck at quiescence: {self.stuck_threads}",
                self.stuck_threads,
            )
        if self.status is RunStatus.STEP_LIMIT:
            raise StepLimitExceededError(f"step limit reached after {self.steps} steps")
        return self


class Kernel:
    """The monitor VM.

    Args:
        scheduler: source of all thread-interleaving decisions.
        lock_policy: how a released lock is granted to entry-set threads
            (FIFO models a fair JVM; LIFO/ADVERSARIAL model unfair ones —
            the FF-T2 fairness discussion).
        notify_policy: how ``notify`` selects a waiter (Section 3.2's
            "arbitrarily select"; FF-T5 unfairness).
        seed: RNG seed for RANDOM policies and fault injection.
        max_steps: syscall budget before the run aborts with STEP_LIMIT.
        auto_tick: at quiescence with clock waiters, advance the abstract
            clock to the earliest awaited time instead of declaring STUCK.
        spurious_wakeup_rate: probability (per wait-state scheduling
            opportunity) that a waiting thread wakes without notification —
            models the JVM's permitted spurious wakeups; exposes the
            if-instead-of-while mutants.
        lost_notify_rate: probability that a notify/notifyAll wakes nobody
            (fault injection standing in for a buggy JVM or a lost-wakeup
            environment); used to measure detector robustness — a correct
            component under injected signal loss exhibits FF-T5 symptoms
            that the completion-time oracle must still catch.
        record_accesses: emit READ/WRITE events for instrumented component
            fields (required by the race detectors; ~25% of kernel time on
            access-heavy workloads — disable for pure throughput runs or
            when only the monitor protocol matters).
        trace_mode: ``"full"`` retains every event in ``self.trace`` (the
            post-hoc analysis path); ``"none"`` retains nothing — events
            are still delivered to subscribed sinks, so a streaming
            detector pipeline sees the whole execution while memory stays
            at O(detector state) instead of O(events).
        sinks: event subscribers called synchronously with every emitted
            event, in subscription order (see :meth:`subscribe`).
    """

    #: Valid values of ``trace_mode``.
    TRACE_MODES = ("full", "none")

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        lock_policy: SelectionPolicy = SelectionPolicy.FIFO,
        notify_policy: SelectionPolicy = SelectionPolicy.FIFO,
        seed: Optional[int] = None,
        max_steps: int = 100_000,
        auto_tick: bool = False,
        spurious_wakeup_rate: float = 0.0,
        lost_notify_rate: float = 0.0,
        record_accesses: bool = True,
        trace_mode: str = "full",
        sinks: Optional[Sequence[Callable[[Event], None]]] = None,
    ) -> None:
        if trace_mode not in self.TRACE_MODES:
            raise ValueError(
                f"trace_mode must be one of {self.TRACE_MODES}, got {trace_mode!r}"
            )
        self.scheduler = scheduler or FifoScheduler()
        self.lock_policy = lock_policy
        self.notify_policy = notify_policy
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        self.auto_tick = auto_tick
        self.spurious_wakeup_rate = spurious_wakeup_rate
        self.lost_notify_rate = lost_notify_rate
        self.record_accesses = record_accesses
        self.trace_mode = trace_mode
        self._sinks: List[Callable[[Event], None]] = list(sinks or [])
        #: kind-filtered subscribers: EventKind -> callbacks.  Empty for
        #: most kernels; emit pays one truth test when unused.
        self._kind_sinks: Dict[EventKind, List[Callable[[Event], None]]] = {}
        #: set via :meth:`request_abort`; a non-None value ends the run
        #: loop at the next step boundary (first reason wins).
        self.abort_reason: Optional[str] = None
        #: optional deterministic fault injector (see :mod:`repro.faults`):
        #: an object with ``on_step(kernel)``, consulted at the top of
        #: every :meth:`step` — the same point as the rate-based spurious
        #: draw, but consuming no kernel RNG.
        self.fault_injector: Optional[Any] = None

        self.trace = Trace()
        self.time = 0
        self.clock_time = 0
        self.steps = 0
        #: thread picked at each step, in order (enables replay of a
        #: saved run via NameReplayScheduler; embedded in saved traces).
        self.schedule_log: List[str] = []
        #: thread that ran the previous step (context-switch accounting).
        self._last_scheduled: Optional[str] = None
        self._seq = 0
        self.threads: Dict[str, SimThread] = {}
        self.monitors: Dict[str, MonitorObject] = {}
        #: first-class primitives (shared name space with monitors — the
        #: ``monitor`` field of their events carries the primitive name).
        self.semaphores: Dict[str, SemaphoreObject] = {}
        self.rwlocks: Dict[str, RwLockObject] = {}
        self.barriers: Dict[str, BarrierObject] = {}
        self.components: Dict[str, Any] = {}
        self._clock_waiters: List[SimThread] = []
        #: set once any timed wait or timed acquire gets a deadline; until
        #: then the per-step expiry scans have nothing to find and are
        #: skipped.
        self._timed_deadlines = False
        self._ran = False

    # -- registration ----------------------------------------------------------

    def register(self, component: Any, name: Optional[str] = None) -> Any:
        """Register a component (anything with a ``_vm_attach`` hook or a
        plain object) and create its monitor.  Returns the component for
        chaining."""
        base = name or type(component).__name__
        unique = base
        counter = 1
        while unique in self.components:
            counter += 1
            unique = f"{base}#{counter}"
        self.components[unique] = component
        monitor = MonitorObject(unique)
        self.monitors[unique] = monitor
        attach = getattr(component, "_vm_attach", None)
        if attach is not None:
            attach(self, unique)
        return component

    def _check_primitive_name(self, name: str) -> None:
        """Monitors and first-class primitives share one name space (the
        ``monitor`` field of their events); reject collisions."""
        for registry, kind in (
            (self.monitors, "monitor"),
            (self.semaphores, "semaphore"),
            (self.rwlocks, "rw-lock"),
            (self.barriers, "barrier"),
        ):
            if name in registry:
                raise ValueError(f"{kind} {name!r} already exists")

    def new_monitor(self, name: str) -> MonitorObject:
        """Create a bare named monitor (for lock-only examples without a
        component, e.g. the nested-lock demo of Section 3.1)."""
        self._check_primitive_name(name)
        monitor = MonitorObject(name)
        self.monitors[name] = monitor
        return monitor

    def new_semaphore(self, name: str, permits: int = 1) -> SemaphoreObject:
        """Create a counting semaphore with ``permits`` initial permits."""
        if permits < 0:
            raise ValueError(f"semaphore {name!r} needs permits >= 0, got {permits}")
        self._check_primitive_name(name)
        sem = SemaphoreObject(name, permits)
        self.semaphores[name] = sem
        return sem

    def new_rwlock(self, name: str, preference: str = "writer") -> RwLockObject:
        """Create a read-write lock.  ``preference`` is ``"writer"`` (a
        queued writer shuts off reader admission) or ``"reader"`` (readers
        barge whenever no writer is active — writers can starve)."""
        if preference not in RW_PREFERENCES:
            raise ValueError(
                f"rw-lock preference must be one of {RW_PREFERENCES}, "
                f"got {preference!r}"
            )
        self._check_primitive_name(name)
        lock = RwLockObject(name, preference)
        self.rwlocks[name] = lock
        return lock

    def new_barrier(self, name: str, parties: int) -> BarrierObject:
        """Create a cyclic barrier tripping every ``parties`` arrivals."""
        if parties < 1:
            raise ValueError(f"barrier {name!r} needs parties >= 1, got {parties}")
        self._check_primitive_name(name)
        barrier = BarrierObject(name, parties)
        self.barriers[name] = barrier
        return barrier

    def spawn(
        self,
        body: Callable[..., Generator[Any, Any, Any]],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> SimThread:
        """Create a simulated thread from a generator function."""
        base = name or getattr(body, "__name__", "thread")
        unique = base
        counter = 1
        while unique in self.threads:
            counter += 1
            unique = f"{base}-{counter}"
        generator = body(*args, **kwargs)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"thread body {base!r} must be a generator function "
                f"(got {type(generator).__name__}); did you forget to yield?"
            )
        thread = SimThread(name=unique, body=generator)
        self.threads[unique] = thread
        return thread

    # -- monitor-name resolution -------------------------------------------------

    def _monitor_name(self, ref: Any, thread: SimThread) -> str:
        """Resolve a syscall's monitor reference to a monitor name."""
        if ref is None:
            innermost = thread.innermost_monitor()
            if innermost is None:
                raise IllegalMonitorStateError(
                    f"thread {thread.name!r} used a bare wait/notify while "
                    f"holding no monitor"
                )
            return innermost
        if isinstance(ref, str):
            if ref not in self.monitors:
                raise UnknownSyscallError(f"unknown monitor {ref!r}")
            return ref
        if isinstance(ref, MonitorObject):
            return ref.name
        vm_name = getattr(ref, "_vm_name", None)
        if vm_name is not None:
            return vm_name
        raise UnknownSyscallError(f"cannot resolve monitor reference {ref!r}")

    def _primitive_name(self, ref: Any, registry: Dict[str, Any], kind: str) -> str:
        """Resolve a syscall's primitive reference (name string, the
        primitive object, or a component exposing ``_vm_name``) to the
        name of an entry in ``registry``."""
        if isinstance(ref, str):
            if ref not in registry:
                raise UnknownSyscallError(f"unknown {kind} {ref!r}")
            return ref
        vm_name = getattr(ref, "_vm_name", None)
        if isinstance(vm_name, str):
            if vm_name not in registry:
                raise UnknownSyscallError(
                    f"component {vm_name!r} is not attached to a {kind}"
                )
            return vm_name
        name = getattr(ref, "name", None)
        if isinstance(name, str) and name in registry:
            return name
        raise UnknownSyscallError(f"cannot resolve {kind} reference {ref!r}")

    def _component_name(self, ref: Any) -> str:
        if isinstance(ref, str):
            return ref
        vm_name = getattr(ref, "_vm_name", None)
        if vm_name is not None:
            return vm_name
        return type(ref).__name__

    # -- event bus ----------------------------------------------------------------

    def subscribe(
        self,
        sink: Callable[[Event], None],
        kinds: Optional[Iterable[EventKind]] = None,
    ) -> None:
        """Add an event sink called synchronously with every emitted event.

        Sinks see events in emission order regardless of ``trace_mode``, so
        a streaming detector attached here observes exactly the sequence a
        batch detector would read back from a full trace.

        ``kinds`` restricts delivery to the given event kinds, with the
        filtering done inside the emit loop — one dict lookup per event
        instead of a Python call into a subscriber that would discard it.
        Unfiltered subscribers always run first, in subscription order;
        kind-filtered subscribers follow, in subscription order per kind.
        """
        if kinds is None:
            self._sinks.append(sink)
            return
        for kind in kinds:
            self._kind_sinks.setdefault(kind, []).append(sink)

    @property
    def events_emitted(self) -> int:
        """Total events emitted so far, regardless of trace retention.

        This is the native event counter (the next event's ``seq``);
        observers read it instead of counting events themselves.
        """
        return self._seq

    def request_abort(self, reason: str) -> None:
        """Ask the run loop to stop at the next step boundary.

        Used by online detectors that have already proven a permanent
        failure (e.g. a wait-for cycle among BLOCKED threads): the usual
        quiescence diagnosis still runs, so the result status is the same
        as if the run had burned steps to reach quiescence naturally.
        The first reason wins; later calls are ignored.
        """
        if self.abort_reason is None:
            self.abort_reason = reason

    # -- event emission -----------------------------------------------------------

    def emit(
        self,
        thread: str,
        kind: EventKind,
        monitor: Optional[str] = None,
        component: Optional[str] = None,
        method: Optional[str] = None,
        **detail: Any,
    ) -> Event:
        event = Event(
            seq=self._seq,
            time=self.time,
            thread=thread,
            kind=kind,
            monitor=monitor,
            component=component,
            method=method,
            detail=detail,
        )
        self._seq += 1
        if self.trace_mode == "full":
            self.trace.append(event)
        for sink in self._sinks:
            sink(event)
        if self._kind_sinks:
            for sink in self._kind_sinks.get(kind, ()):
                sink(event)
        return event

    def record_access(self, component: Any, fieldname: str, is_write: bool) -> None:
        """Record a shared-field access by the currently executing thread.

        Called from instrumented component ``__setattr__``/``__getattribute__``
        hooks; a no-op outside VM execution (e.g. during ``__init__``) and
        when access recording is disabled.
        """
        if not self.record_accesses:
            return
        if not _CURRENT or _CURRENT[-1][0] is not self:
            return
        thread = _CURRENT[-1][1]
        comp_name = self._component_name(component)
        _, frame_method = thread.current_frame()
        self.emit(
            thread.name,
            EventKind.WRITE if is_write else EventKind.READ,
            component=comp_name,
            method=frame_method,
            field=fieldname,
        )

    # -- wait-queue core: shared blocked-state bookkeeping ---------------------------

    def _mark_blocked(
        self,
        thread: SimThread,
        on: str,
        kind: str = "monitor",
        arg: Any = None,
    ) -> None:
        """Park ``thread`` as BLOCKED on primitive ``on`` (the thread must
        already sit in that primitive's wait queue).  Shared by every
        primitive so the blocked-interval accounting is uniform."""
        thread.blocked_on = on
        thread.blocked_kind = kind
        thread.blocked_arg = arg
        thread.state = ThreadState.BLOCKED
        thread.blocked_since = self.time

    def _clear_blocked(self, thread: SimThread) -> int:
        """Unpark ``thread`` from BLOCKED (the caller has already removed
        it from its wait queue): close the blocked interval and reset the
        primitive bookkeeping.  Returns the ticks spent blocked."""
        thread.blocked_on = None
        thread.blocked_kind = "monitor"
        thread.blocked_arg = None
        thread.acquire_deadline = None
        thread.state = ThreadState.RUNNABLE
        blocked_for = 0
        if thread.blocked_since is not None:
            blocked_for = self.time - thread.blocked_since
            thread.blocked_ticks += blocked_for
            thread.blocked_since = None
        return blocked_for

    # -- lock machinery -------------------------------------------------------------

    def _grant_lock(self, monitor: MonitorObject) -> None:
        """If the lock is free and the entry set is nonempty, grant it to a
        thread chosen by the lock policy."""
        if monitor.owner is not None or not monitor.entry_set:
            return
        chosen_name = monitor.select_blocked(self.lock_policy, self.rng)
        thread = self.threads[chosen_name]
        if thread.reacquiring:
            depth = thread.saved_entry_count
            monitor.acquire_by(chosen_name, depth)
            for _ in range(depth):
                thread.push_hold(monitor.name)
            thread.saved_entry_count = 0
            thread.reacquiring = False
            if thread.pending_interrupt:
                # JVM semantics: the InterruptedException of an interrupted
                # wait is raised only after the monitor is reacquired.
                thread.pending_interrupt = False
                thread.throw_exc = InterruptedError(
                    f"thread {chosen_name!r} interrupted while waiting on "
                    f"{monitor.name!r}"
                )
        else:
            depth = 1
            monitor.acquire_by(chosen_name, 1)
            thread.push_hold(monitor.name)
        blocked_for = self._clear_blocked(thread)
        self.emit(
            chosen_name,
            EventKind.MONITOR_ACQUIRE,
            monitor=monitor.name,
            count=depth,
            blocked_for=blocked_for,
        )

    def _release_fully(self, thread: SimThread, monitor: MonitorObject) -> int:
        """Release every hold ``thread`` has on ``monitor`` (wait semantics).
        Returns the released depth."""
        depth = thread.hold_depth(monitor.name)
        for _ in range(depth):
            thread.pop_hold(monitor.name)
        monitor.owner = None
        monitor.entry_count = 0
        return depth

    # -- syscall handlers --------------------------------------------------------------

    def _sys_acquire(self, thread: SimThread, call: Acquire) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        self.emit(thread.name, EventKind.MONITOR_REQUEST, monitor=name)
        if monitor.is_owned_by(thread.name):
            # Reentrant acquire: no contention, immediately deeper hold.
            monitor.entry_count += 1
            thread.push_hold(name)
            self.emit(thread.name, EventKind.MONITOR_ACQUIRE, monitor=name, reentrant=True)
            thread.send_value = None
            return
        if monitor.is_free() and not monitor.entry_set:
            monitor.acquire_by(thread.name)
            thread.push_hold(name)
            self.emit(thread.name, EventKind.MONITOR_ACQUIRE, monitor=name)
            thread.send_value = None
            return
        # Contended (or the policy must arbitrate among queued threads).
        monitor.add_blocked(thread.name)
        self._mark_blocked(thread, name)
        self._grant_lock(monitor)

    def _sys_release(self, thread: SimThread, call: Release) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        if not monitor.is_owned_by(thread.name):
            raise IllegalMonitorStateError(
                f"thread {thread.name!r} released monitor {name!r} it does not own"
            )
        monitor.entry_count -= 1
        thread.pop_hold(name)
        if monitor.entry_count == 0:
            monitor.owner = None
            self.emit(thread.name, EventKind.MONITOR_RELEASE, monitor=name)
            self._grant_lock(monitor)
        else:
            self.emit(
                thread.name, EventKind.MONITOR_RELEASE, monitor=name, reentrant=True
            )
        thread.send_value = None

    @staticmethod
    def _yield_location(thread: SimThread) -> Optional[int]:
        """Source line of the innermost yield the thread is suspended at.

        Walks the ``yield from`` delegation chain so the line points into
        the component method, not the ``@synchronized`` wrapper.  This is
        what lets the coverage tracker match a runtime wait/notify event to
        the static CoFG node built from the same source."""
        gen = thread.body
        while True:
            inner = getattr(gen, "gi_yieldfrom", None)
            if inner is None or not hasattr(inner, "gi_frame"):
                break
            gen = inner
        frame = getattr(gen, "gi_frame", None)
        return frame.f_lineno if frame is not None else None

    def _sys_wait(self, thread: SimThread, call: Wait) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        if not monitor.is_owned_by(thread.name):
            raise IllegalMonitorStateError(
                f"thread {thread.name!r} called wait() on monitor {name!r} "
                f"without owning it"
            )
        timeout = call.timeout
        if timeout is not None and timeout < 0:
            thread.throw_exc = ValueError(
                f"negative wait timeout {timeout!r} in thread {thread.name!r}"
            )
            return
        if thread.interrupted:
            # Java: wait() with the interrupt status set throws immediately,
            # clears the status, and never releases the lock.
            thread.interrupted = False
            thread.throw_exc = InterruptedError(
                f"thread {thread.name!r} called wait() on {name!r} with its "
                f"interrupt flag set"
            )
            return
        depth = self._release_fully(thread, monitor)
        thread.saved_entry_count = depth
        monitor.add_waiter(thread.name)
        thread.waiting_on = name
        thread.state = ThreadState.WAITING
        thread.waiting_since = self.time
        thread.waits_entered += 1
        # Java's wait(0) waits forever; only positive timeouts are timed.
        if timeout:
            thread.wait_deadline = self.time + timeout
            self._timed_deadlines = True
        else:
            thread.wait_deadline = None
        comp, meth = thread.current_frame()
        self.emit(
            thread.name,
            EventKind.MONITOR_WAIT,
            monitor=name,
            component=comp,
            method=meth,
            depth=depth,
            line=self._yield_location(thread),
            **({"timeout": timeout} if timeout else {}),
        )
        self._grant_lock(monitor)

    def _wake_waiter(
        self,
        monitor: MonitorObject,
        waiter_name: str,
        by: str,
        reason: WakeReason = WakeReason.NOTIFY,
    ) -> None:
        """Move a waiter to the entry set (T5: D -> B).

        ``reason`` records *why* the wait exited — notify, notifyAll,
        interrupt, timeout, or spurious — in the MONITOR_NOTIFIED event,
        so saved traces reproduce faulted runs byte-identically.
        """
        waiter = self.threads[waiter_name]
        waiter.waiting_on = None
        waiter.reacquiring = True
        waiter.wait_deadline = None
        if reason is WakeReason.INTERRUPT:
            waiter.pending_interrupt = True
        if waiter.waiting_since is not None:
            waiter.waiting_ticks += self.time - waiter.waiting_since
            waiter.waiting_since = None
        monitor.add_blocked(waiter_name)
        self._mark_blocked(waiter, monitor.name)
        self.emit(
            waiter_name,
            EventKind.MONITOR_NOTIFIED,
            monitor=monitor.name,
            by=by,
            spurious=reason is WakeReason.SPURIOUS,
            reason=reason.value,
        )

    def _sys_notify(
        self, thread: SimThread, call: Notify, all_waiters: bool = False
    ) -> None:
        name = self._monitor_name(call.monitor, thread)
        monitor = self.monitors[name]
        if not monitor.is_owned_by(thread.name):
            raise IllegalMonitorStateError(
                f"thread {thread.name!r} called notify on monitor {name!r} "
                f"without owning it"
            )
        injected_loss = (
            self.lost_notify_rate > 0.0
            and monitor.wait_set
            and self.rng.random() < self.lost_notify_rate
        )
        woken: List[str] = []
        if not injected_loss:
            if all_waiters:
                # notifyAll wakes every waiter; order in the entry set
                # follows the notify policy applied repeatedly.
                while monitor.wait_set:
                    waiter = monitor.select_waiter(self.notify_policy, self.rng)
                    woken.append(waiter)
            elif monitor.wait_set:
                woken.append(
                    monitor.select_waiter(self.notify_policy, self.rng)
                )
        comp, meth = thread.current_frame()
        self.emit(
            thread.name,
            EventKind.NOTIFY_ALL if all_waiters else EventKind.NOTIFY,
            monitor=name,
            component=comp,
            method=meth,
            woken=list(woken),
            line=self._yield_location(thread),
            **({"injected_loss": True} if injected_loss else {}),
        )
        for waiter in woken:
            self._wake_waiter(
                monitor,
                waiter,
                by=thread.name,
                reason=(
                    WakeReason.NOTIFY_ALL if all_waiters else WakeReason.NOTIFY
                ),
            )
        thread.send_value = None

    def _sys_tick(self, thread: SimThread, call: Tick) -> None:
        self._do_tick(by=thread.name)
        thread.send_value = None

    def _do_tick(self, by: str) -> None:
        self.clock_time += 1
        resumed = [
            t for t in self._clock_waiters if (t.await_target or 0) <= self.clock_time
        ]
        self._clock_waiters = [t for t in self._clock_waiters if t not in resumed]
        self.emit(
            by,
            EventKind.CLOCK_TICK,
            now=self.clock_time,
            resumed=[t.name for t in resumed],
        )
        for waiter in resumed:
            waiter.await_target = None
            waiter.state = ThreadState.RUNNABLE
            waiter.send_value = None
            self.emit(waiter.name, EventKind.CLOCK_RESUME, now=self.clock_time)

    def _sys_await(self, thread: SimThread, call: AwaitTime) -> None:
        if self.clock_time >= call.target:
            thread.send_value = None
            return
        thread.await_target = call.target
        thread.state = ThreadState.CLOCK_WAIT
        self._clock_waiters.append(thread)
        self.emit(thread.name, EventKind.CLOCK_AWAIT, target=call.target)

    def _sys_call_begin(self, thread: SimThread, call: CallBegin) -> None:
        comp = self._component_name(call.component)
        thread.call_stack.append((comp, call.method))
        self.emit(
            thread.name, EventKind.CALL_BEGIN, component=comp, method=call.method
        )
        thread.send_value = None

    def _sys_call_end(self, thread: SimThread, call: CallEnd) -> None:
        comp = self._component_name(call.component)
        if thread.call_stack and thread.call_stack[-1] == (comp, call.method):
            thread.call_stack.pop()
        self.emit(
            thread.name,
            EventKind.CALL_END,
            component=comp,
            method=call.method,
            result=call.result,
            **({"interrupted": True} if call.interrupted else {}),
        )
        thread.send_value = None

    # -- counting semaphores (S1..S3) -------------------------------------------------

    def _sys_sem_acquire(self, thread: SimThread, call: SemAcquire) -> None:
        name = self._primitive_name(call.semaphore, self.semaphores, "semaphore")
        sem = self.semaphores[name]
        n = call.n
        if n < 1:
            thread.throw_exc = ValueError(
                f"thread {thread.name!r} asked semaphore {name!r} for {n} permits"
            )
            return
        timeout = call.timeout
        if timeout is not None and timeout < 0:
            thread.throw_exc = ValueError(
                f"negative acquire timeout {timeout!r} in thread {thread.name!r}"
            )
            return
        comp, meth = thread.current_frame()
        self.emit(
            thread.name,
            EventKind.SEM_REQUEST,
            monitor=name,
            component=comp,
            method=meth,
            n=n,
            **({"timeout": timeout} if timeout is not None else {}),
        )
        if thread.interrupted:
            # j.u.c Semaphore.acquire() is interruptible: arriving with the
            # interrupt status set throws immediately and clears it.
            thread.interrupted = False
            thread.throw_exc = InterruptedError(
                f"thread {thread.name!r} called acquire() on {name!r} with "
                f"its interrupt flag set"
            )
            return
        if not sem.queue and sem.permits >= n:
            sem.permits -= n
            sem.hold(thread.name, n)
            self.emit(
                thread.name,
                EventKind.SEM_ACQUIRE,
                monitor=name,
                n=n,
                available=sem.permits,
                blocked_for=0,
            )
            thread.send_value = True
            return
        # Contended (or the policy must arbitrate among queued acquirers).
        sem.queue.add(thread.name)
        self._mark_blocked(thread, name, kind="semaphore", arg=n)
        if timeout is not None:
            # tryAcquire(n, timeout) on virtual time; resolves False at the
            # deadline if the permits were never granted.
            thread.acquire_deadline = self.time + timeout
            self._timed_deadlines = True
        self._grant_sem(sem)

    def _grant_sem(self, sem: SemaphoreObject) -> None:
        """Grant permits to queued acquirers while they fit.  The lock
        policy selects each candidate; a selected candidate needing more
        permits than are available stops the loop (no barging past it)."""
        while sem.queue and sem.permits > 0:
            candidate = sem.queue.peek_select(self.lock_policy, self.rng)
            thread = self.threads[candidate]
            need = int(thread.blocked_arg or 1)
            if need > sem.permits:
                return
            sem.queue.remove(candidate)
            sem.permits -= need
            sem.hold(candidate, need)
            blocked_for = self._clear_blocked(thread)
            thread.send_value = True
            self.emit(
                candidate,
                EventKind.SEM_ACQUIRE,
                monitor=sem.name,
                n=need,
                available=sem.permits,
                blocked_for=blocked_for,
            )

    def _sys_sem_release(self, thread: SimThread, call: SemRelease) -> None:
        name = self._primitive_name(call.semaphore, self.semaphores, "semaphore")
        sem = self.semaphores[name]
        n = call.n
        if n < 1:
            thread.throw_exc = ValueError(
                f"thread {thread.name!r} released {n} permits to semaphore {name!r}"
            )
            return
        # No ownership requirement (j.u.c Semaphore.release()): any thread
        # may add permits — which is exactly why a *dropped* release
        # (lost-permit) has no local symptom at the dropping thread.
        sem.permits += n
        sem.unhold(thread.name, n)
        comp, meth = thread.current_frame()
        self.emit(
            thread.name,
            EventKind.SEM_RELEASE,
            monitor=name,
            component=comp,
            method=meth,
            n=n,
            available=sem.permits,
        )
        thread.send_value = None
        self._grant_sem(sem)

    # -- read-write locks (R1..R4) ----------------------------------------------------

    def _rw_read_admissible(self, lock: RwLockObject) -> bool:
        """May a reader be admitted right now?  No active writer, and —
        under writer preference — no queued writer either."""
        if lock.writer is not None:
            return False
        if lock.preference == "writer" and lock.write_queue:
            return False
        return True

    def _sys_rw_acquire(self, thread: SimThread, call: RwAcquire) -> None:
        name = self._primitive_name(call.lock, self.rwlocks, "rw-lock")
        lock = self.rwlocks[name]
        mode = call.mode
        if mode not in ("read", "write"):
            thread.throw_exc = ValueError(
                f"rw-lock mode must be 'read' or 'write', got {mode!r}"
            )
            return
        comp, meth = thread.current_frame()
        self.emit(
            thread.name,
            EventKind.RW_REQUEST,
            monitor=name,
            component=comp,
            method=meth,
            mode=mode,
        )
        if thread.interrupted:
            thread.interrupted = False
            thread.throw_exc = InterruptedError(
                f"thread {thread.name!r} acquired rw-lock {name!r} with its "
                f"interrupt flag set"
            )
            return
        if mode == "read":
            if lock.writer == thread.name:
                # The j.u.c downgrade: a write holder may always take a
                # read hold; it never blocks (R4, not R1->R2).
                lock.readers[thread.name] = lock.readers.get(thread.name, 0) + 1
                self.emit(
                    thread.name,
                    EventKind.RW_DOWNGRADE,
                    monitor=name,
                    read_depth=lock.readers[thread.name],
                )
                thread.send_value = None
                return
            if thread.name in lock.readers:
                lock.readers[thread.name] += 1
                self.emit(
                    thread.name,
                    EventKind.RW_ACQUIRE,
                    monitor=name,
                    mode="read",
                    reentrant=True,
                )
                thread.send_value = None
                return
            if self._rw_read_admissible(lock) and not lock.read_queue:
                lock.readers[thread.name] = 1
                self.emit(
                    thread.name,
                    EventKind.RW_ACQUIRE,
                    monitor=name,
                    mode="read",
                    readers=len(lock.readers),
                    blocked_for=0,
                )
                thread.send_value = None
                return
            lock.read_queue.add(thread.name)
            self._mark_blocked(thread, name, kind="rwlock", arg="read")
        else:
            if lock.writer == thread.name:
                lock.writer_depth += 1
                self.emit(
                    thread.name,
                    EventKind.RW_ACQUIRE,
                    monitor=name,
                    mode="write",
                    reentrant=True,
                )
                thread.send_value = None
                return
            if (
                lock.writer is None
                and not lock.readers
                and not lock.write_queue
            ):
                lock.writer = thread.name
                lock.writer_depth = 1
                self.emit(
                    thread.name,
                    EventKind.RW_ACQUIRE,
                    monitor=name,
                    mode="write",
                    blocked_for=0,
                )
                thread.send_value = None
                return
            # A read holder requesting write lands here too: the j.u.c
            # read->write upgrade is unsupported and blocks forever on its
            # own read hold — a self-edge in the wait-for graph.
            lock.write_queue.add(thread.name)
            self._mark_blocked(thread, name, kind="rwlock", arg="write")
        self._grant_rw(lock)

    def _grant_rw(self, lock: RwLockObject) -> None:
        """Admit queued acquirers according to the lock's preference.
        Loops until nobody else may proceed: one writer when the lock is
        fully free, else every admissible reader."""
        granted = True
        while granted:
            granted = False
            if (
                lock.write_queue
                and lock.writer is None
                and not lock.readers
                and not (lock.preference == "reader" and lock.read_queue)
            ):
                chosen = lock.write_queue.pop_select(self.lock_policy, self.rng)
                writer = self.threads[chosen]
                lock.writer = chosen
                lock.writer_depth = 1
                blocked_for = self._clear_blocked(writer)
                writer.send_value = None
                self.emit(
                    chosen,
                    EventKind.RW_ACQUIRE,
                    monitor=lock.name,
                    mode="write",
                    blocked_for=blocked_for,
                )
                granted = True
                continue
            if lock.read_queue and self._rw_read_admissible(lock):
                chosen = lock.read_queue.pop_select(self.lock_policy, self.rng)
                reader = self.threads[chosen]
                lock.readers[chosen] = lock.readers.get(chosen, 0) + 1
                blocked_for = self._clear_blocked(reader)
                reader.send_value = None
                self.emit(
                    chosen,
                    EventKind.RW_ACQUIRE,
                    monitor=lock.name,
                    mode="read",
                    readers=len(lock.readers),
                    blocked_for=blocked_for,
                )
                granted = True

    def _sys_rw_release(self, thread: SimThread, call: RwRelease) -> None:
        name = self._primitive_name(call.lock, self.rwlocks, "rw-lock")
        lock = self.rwlocks[name]
        comp, meth = thread.current_frame()
        if lock.writer == thread.name:
            # Write holds unwind before read holds taken under them, so a
            # downgrade sequence (write, read, release, release) leaves
            # the read hold active after the first release — j.u.c order.
            lock.writer_depth -= 1
            if lock.writer_depth > 0:
                self.emit(
                    thread.name,
                    EventKind.RW_RELEASE,
                    monitor=name,
                    mode="write",
                    reentrant=True,
                )
                thread.send_value = None
                return
            lock.writer = None
            self.emit(
                thread.name,
                EventKind.RW_RELEASE,
                monitor=name,
                component=comp,
                method=meth,
                mode="write",
            )
            thread.send_value = None
            self._grant_rw(lock)
            return
        if thread.name in lock.readers:
            lock.readers[thread.name] -= 1
            if lock.readers[thread.name] > 0:
                self.emit(
                    thread.name,
                    EventKind.RW_RELEASE,
                    monitor=name,
                    mode="read",
                    reentrant=True,
                )
                thread.send_value = None
                return
            del lock.readers[thread.name]
            self.emit(
                thread.name,
                EventKind.RW_RELEASE,
                monitor=name,
                component=comp,
                method=meth,
                mode="read",
                readers=len(lock.readers),
            )
            thread.send_value = None
            self._grant_rw(lock)
            return
        raise IllegalMonitorStateError(
            f"thread {thread.name!r} released rw-lock {name!r} it does not hold"
        )

    # -- cyclic barriers (B1..B2) -------------------------------------------------------

    def _sys_barrier_await(self, thread: SimThread, call: BarrierAwait) -> None:
        name = self._primitive_name(call.barrier, self.barriers, "barrier")
        barrier = self.barriers[name]
        comp, meth = thread.current_frame()
        if barrier.broken:
            self.emit(
                thread.name,
                EventKind.BARRIER_AWAIT,
                monitor=name,
                component=comp,
                method=meth,
                broken=True,
            )
            thread.throw_exc = BrokenBarrierError(
                f"thread {thread.name!r} arrived at broken barrier {name!r}"
            )
            return
        if thread.interrupted:
            # await() with the interrupt status set throws immediately and
            # breaks the barrier for everyone already parked at it.
            thread.interrupted = False
            thread.throw_exc = InterruptedError(
                f"thread {thread.name!r} called await() on {name!r} with "
                f"its interrupt flag set"
            )
            self._break_barrier(barrier, by=thread.name)
            return
        index = len(barrier.waiters)
        self.emit(
            thread.name,
            EventKind.BARRIER_AWAIT,
            monitor=name,
            component=comp,
            method=meth,
            index=index,
            parties=barrier.parties,
            line=self._yield_location(thread),
        )
        if index == barrier.parties - 1:
            self._trip_barrier(barrier, last=thread)
            return
        barrier.waiters.add(thread.name)
        barrier.arrival[thread.name] = index
        thread.waiting_on = name
        thread.waiting_kind = "barrier"
        thread.state = ThreadState.WAITING
        thread.waiting_since = self.time
        thread.waits_entered += 1

    def _end_barrier_wait(self, barrier: BarrierObject, waiter: SimThread) -> int:
        """Remove ``waiter`` from the barrier and close its waiting
        interval; returns its arrival index."""
        barrier.waiters.remove(waiter.name)
        index = barrier.arrival.pop(waiter.name, 0)
        waiter.waiting_on = None
        waiter.waiting_kind = "monitor"
        waiter.state = ThreadState.RUNNABLE
        if waiter.waiting_since is not None:
            waiter.waiting_ticks += self.time - waiter.waiting_since
            waiter.waiting_since = None
        return index

    def _trip_barrier(self, barrier: BarrierObject, last: SimThread) -> None:
        """The final party arrived: release every waiter (B2) and start the
        next generation."""
        generation = barrier.generation
        released = list(barrier.waiters)
        self.emit(
            last.name,
            EventKind.BARRIER_TRIP,
            monitor=barrier.name,
            generation=generation,
            parties=barrier.parties,
            released=released + [last.name],
        )
        for name in released:
            waiter = self.threads[name]
            index = self._end_barrier_wait(barrier, waiter)
            waiter.send_value = index
            self.emit(
                name,
                EventKind.BARRIER_RESUME,
                monitor=barrier.name,
                generation=generation,
                index=index,
            )
        last.send_value = barrier.parties - 1
        self.emit(
            last.name,
            EventKind.BARRIER_RESUME,
            monitor=barrier.name,
            generation=generation,
            index=barrier.parties - 1,
        )
        barrier.generation = generation + 1
        barrier.arrival.clear()

    def _break_barrier(self, barrier: BarrierObject, by: str) -> None:
        """Break the barrier (a waiter or arrival was interrupted): every
        parked waiter resumes with ``BrokenBarrierError``, and the barrier
        rejects all future arrivals — j.u.c semantics without ``reset()``."""
        barrier.broken = True
        parked = list(barrier.waiters)
        self.emit(
            by,
            EventKind.BARRIER_BROKEN,
            monitor=barrier.name,
            generation=barrier.generation,
            waiters=parked,
        )
        for name in parked:
            waiter = self.threads[name]
            self._end_barrier_wait(barrier, waiter)
            waiter.throw_exc = BrokenBarrierError(
                f"barrier {barrier.name!r} broke while thread {name!r} "
                f"awaited it"
            )

    # -- environment faults: spurious wakeups, interrupts, timed waits ---------------

    def spurious_wake(self, monitor_name: str, waiter_name: str) -> None:
        """Spuriously wake ``waiter_name`` from ``monitor_name``'s wait set
        — the JVM's documented liberty, as one deterministic effect.

        Both injection paths (the rate-based draw and a
        :class:`~repro.faults.FaultInjector` rule) route through this one
        method, so they emit identical event sequences for the same wake.
        """
        monitor = self.monitors[monitor_name]
        if waiter_name not in monitor.wait_set:
            raise UnknownSyscallError(
                f"cannot spuriously wake {waiter_name!r}: not waiting on "
                f"{monitor_name!r}"
            )
        monitor.remove_waiter(waiter_name)
        self.emit(waiter_name, EventKind.SPURIOUS_WAKEUP, monitor=monitor.name)
        self._wake_waiter(
            monitor, waiter_name, by="<jvm>", reason=WakeReason.SPURIOUS
        )
        # Unlike notify (where the notifier still holds the lock), a
        # spurious wakeup can hit a free monitor: grant immediately.
        self._grant_lock(monitor)

    def _maybe_spurious_wakeup(self) -> None:
        """With the configured probability, wake one random waiting thread
        without any notify."""
        if self.spurious_wakeup_rate <= 0.0:
            return
        if self.rng.random() >= self.spurious_wakeup_rate:
            return
        candidates = [
            (m, w)
            for m in self.monitors.values()
            for w in m.wait_set
        ]
        if not candidates:
            return
        monitor, waiter = candidates[self.rng.randrange(len(candidates))]
        self.spurious_wake(monitor.name, waiter)

    def interrupt(self, name: str, by: str = "<env>") -> None:
        """Interrupt thread ``name`` (``Thread.interrupt()``), JVM-style.

        * WAITING: woken with ``reason="interrupt"``; ``InterruptedError``
          is raised once the monitor has been reacquired.
        * BLOCKED on an acquire (not a post-wait reacquisition): removed
          from the entry set and resumed with ``InterruptedError`` at the
          acquire point.
        * BLOCKED reacquiring after a wake: the error is delivered after
          reacquisition, like the waiting case.
        * Runnable (or clock-waiting): the interrupt flag is set; the next
          ``Wait`` raises immediately.
        * Terminated/crashed: no effect (flag set, never observed).
        """
        if name not in self.threads:
            raise UnknownSyscallError(f"cannot interrupt unknown thread {name!r}")
        thread = self.threads[name]
        self.emit(
            name, EventKind.INTERRUPT, by=by, thread_state=thread.state.value
        )
        if thread.state is ThreadState.WAITING and thread.waiting_on:
            if thread.waiting_kind == "barrier":
                # Interrupting a barrier waiter *breaks* the barrier: the
                # interrupted thread gets InterruptedError, every other
                # waiter gets BrokenBarrierError (j.u.c CyclicBarrier).
                barrier = self.barriers[thread.waiting_on]
                self._end_barrier_wait(barrier, thread)
                thread.throw_exc = InterruptedError(
                    f"thread {name!r} interrupted while awaiting barrier "
                    f"{barrier.name!r}"
                )
                self._break_barrier(barrier, by=name)
                return
            monitor = self.monitors[thread.waiting_on]
            monitor.remove_waiter(name)
            self._wake_waiter(monitor, name, by=by, reason=WakeReason.INTERRUPT)
            self._grant_lock(monitor)
            return
        if thread.state is ThreadState.BLOCKED and thread.blocked_on:
            if thread.blocked_kind == "semaphore":
                sem = self.semaphores[thread.blocked_on]
                sem.queue.remove(name)
                self._clear_blocked(thread)
                thread.throw_exc = InterruptedError(
                    f"thread {name!r} interrupted while acquiring semaphore "
                    f"{sem.name!r}"
                )
                # Removing the acquirer may unblock a later, smaller one.
                self._grant_sem(sem)
                return
            if thread.blocked_kind == "rwlock":
                lock = self.rwlocks[thread.blocked_on]
                queue = (
                    lock.write_queue
                    if thread.blocked_arg == "write"
                    else lock.read_queue
                )
                queue.remove(name)
                self._clear_blocked(thread)
                thread.throw_exc = InterruptedError(
                    f"thread {name!r} interrupted while acquiring rw-lock "
                    f"{lock.name!r} for {thread.blocked_arg}"
                )
                # A removed queued writer may re-admit readers under
                # writer preference.
                self._grant_rw(lock)
                return
            if thread.reacquiring:
                thread.pending_interrupt = True
                return
            monitor = self.monitors[thread.blocked_on]
            monitor.remove_blocked(name)
            self._clear_blocked(thread)
            thread.throw_exc = InterruptedError(
                f"thread {name!r} interrupted while blocked acquiring "
                f"{monitor.name!r}"
            )
            return
        thread.interrupted = True

    def expire_wait(self, name: str, by: str = "<timer>") -> None:
        """Expire thread ``name``'s wait as a timeout, waking it with
        ``reason="timeout"`` (used for natural virtual-time expiry and by
        fault-plan ``timeout`` rules forcing one)."""
        thread = self.threads.get(name)
        if thread is None or thread.state is not ThreadState.WAITING:
            raise UnknownSyscallError(
                f"cannot expire wait of {name!r}: not waiting"
            )
        assert thread.waiting_on is not None
        monitor = self.monitors[thread.waiting_on]
        monitor.remove_waiter(name)
        self.emit(
            name,
            EventKind.WAIT_TIMEOUT,
            monitor=monitor.name,
            by=by,
            deadline=thread.wait_deadline,
        )
        self._wake_waiter(monitor, name, by=by, reason=WakeReason.TIMEOUT)
        # Like a spurious wake, expiry can hit a free monitor.
        self._grant_lock(monitor)

    def _expire_timed_waits(self) -> None:
        """Wake every timed waiter whose deadline has been reached."""
        expired = [
            t.name
            for t in self.threads.values()
            if t.state is ThreadState.WAITING
            and t.wait_deadline is not None
            and self.time >= t.wait_deadline
        ]
        for name in expired:
            self.expire_wait(name)

    def expire_acquire(self, name: str, by: str = "<timer>") -> None:
        """Fail thread ``name``'s timed semaphore acquire: the thread
        resumes with ``False`` (``tryAcquire`` on virtual time), mirroring
        :meth:`expire_wait` (used for natural virtual-time expiry and by
        fault-plan ``timeout`` rules forcing one)."""
        thread = self.threads.get(name)
        if (
            thread is None
            or thread.state is not ThreadState.BLOCKED
            or thread.blocked_kind != "semaphore"
        ):
            raise UnknownSyscallError(
                f"cannot expire acquire of {name!r}: not blocked on a semaphore"
            )
        assert thread.blocked_on is not None
        sem = self.semaphores[thread.blocked_on]
        sem.queue.remove(thread.name)
        deadline = thread.acquire_deadline
        self._clear_blocked(thread)
        thread.send_value = False
        self.emit(
            thread.name,
            EventKind.WAIT_TIMEOUT,
            monitor=sem.name,
            by=by,
            deadline=deadline,
            primitive="semaphore",
        )
        # The expired acquirer may have been the head of the queue
        # holding back smaller requests.
        self._grant_sem(sem)

    def _expire_timed_acquires(self) -> None:
        """Fail every timed semaphore acquire whose deadline has been
        reached."""
        expired = [
            t.name
            for t in self.threads.values()
            if t.state is ThreadState.BLOCKED
            and t.blocked_kind == "semaphore"
            and t.acquire_deadline is not None
            and self.time >= t.acquire_deadline
        ]
        for name in expired:
            self.expire_acquire(name)

    # -- native observability counters --------------------------------------------------

    def thread_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-thread scheduler counters, maintained natively by the run
        loop (no event replay needed): ``context_switches`` (times the
        thread was scheduled after a different thread ran), and the
        virtual-time totals ``blocked_ticks`` / ``waiting_ticks``.  The
        :class:`~repro.obs.InstrumentationSink` consumes these directly
        instead of re-deriving them from the trace."""
        return {
            t.name: {
                "context_switches": t.context_switches,
                "blocked_ticks": t.blocked_ticks,
                "waiting_ticks": t.waiting_ticks,
            }
            for t in self.threads.values()
        }

    # -- diagnosis ----------------------------------------------------------------------

    def _blocked_edges(self) -> Dict[str, List[str]]:
        """The wait-for graph over BLOCKED threads: monitor acquirers wait
        on the single owner; semaphore acquirers wait on *every* permit
        holder; rw acquirers wait on the writer and all active readers."""
        edges: Dict[str, List[str]] = {}
        for thread in self.threads.values():
            if thread.state is not ThreadState.BLOCKED or not thread.blocked_on:
                continue
            if thread.blocked_kind == "semaphore":
                succ = list(self.semaphores[thread.blocked_on].holders)
            elif thread.blocked_kind == "rwlock":
                succ = list(self.rwlocks[thread.blocked_on].holders())
            else:
                owner = self.monitors[thread.blocked_on].owner
                succ = [owner] if owner is not None else []
            if succ:
                edges[thread.name] = succ
        return edges

    def _wait_for_cycle(self) -> List[str]:
        """Find a cycle in the wait-for graph (thread -> threads holding
        what it is blocked on).  Returns the cycle's thread names, or [].
        Exploration follows thread-insertion order, so monitor-only graphs
        yield exactly the cycles the pre-wait-queue chain walk found."""
        return find_cycle(self._blocked_edges())

    # -- the run loop ----------------------------------------------------------------------

    def _runnable(self) -> List[SimThread]:
        return [
            t
            for t in self.threads.values()
            if t.state in (ThreadState.NEW, ThreadState.RUNNABLE)
        ]

    def _resume(self, thread: SimThread) -> Optional[Syscall]:
        """Resume a thread's generator; return its next syscall or None when
        it terminated/crashed."""
        if thread.state is ThreadState.NEW:
            thread.state = ThreadState.RUNNABLE
            thread.started_at = self.time
            self.emit(thread.name, EventKind.THREAD_START)
        _CURRENT.append((self, thread))
        try:
            if thread.throw_exc is not None:
                exc = thread.throw_exc
                thread.throw_exc = None
                syscall = thread.body.throw(exc)
            else:
                value = thread.send_value
                thread.send_value = None
                syscall = thread.body.send(value)
            return syscall
        except StopIteration as stop:
            thread.state = ThreadState.TERMINATED
            thread.result = stop.value
            thread.ended_at = self.time
            self.emit(thread.name, EventKind.THREAD_END, result=stop.value)
            self._release_abandoned_locks(thread)
            return None
        except InterruptedError:
            # Propagating the interrupt out of the thread body is the
            # *correct* response to interruption (Java's cancellation
            # contract): the thread terminates cleanly, marked interrupted.
            thread.state = ThreadState.TERMINATED
            thread.result = None
            thread.ended_at = self.time
            self.emit(
                thread.name, EventKind.THREAD_END, result=None, interrupted=True
            )
            self._release_abandoned_locks(thread)
            return None
        except Exception as exc:  # noqa: BLE001 - thread bodies may raise anything
            thread.state = ThreadState.CRASHED
            thread.exception = exc
            thread.ended_at = self.time
            self.emit(thread.name, EventKind.THREAD_CRASH, error=repr(exc))
            self._release_abandoned_locks(thread)
            return None
        finally:
            _CURRENT.pop()

    def _release_abandoned_locks(self, thread: SimThread) -> None:
        """Release any monitors a dead thread still holds (as Java does when
        a synchronized block unwinds on exception)."""
        while thread.held:
            name, _ = thread.held[-1]
            monitor = self.monitors[name]
            thread.pop_hold(name)
            monitor.entry_count -= 1
            if monitor.entry_count <= 0:
                monitor.owner = None
                monitor.entry_count = 0
                self.emit(thread.name, EventKind.MONITOR_RELEASE, monitor=name, abandoned=True)
                self._grant_lock(monitor)

    def _dispatch(self, thread: SimThread, syscall: Syscall) -> None:
        try:
            handler = _SYSCALL_HANDLERS[type(syscall)]
        except KeyError:
            handler = _handler_for_subclass(type(syscall))
            if handler is None:
                raise UnknownSyscallError(
                    f"thread {thread.name!r} yielded {syscall!r}"
                ) from None
        handler(self, thread, syscall)

    def _sys_read(self, thread: SimThread, call: Read) -> None:
        self.emit(
            thread.name,
            EventKind.READ,
            component=self._component_name(call.component),
            method=thread.current_frame()[1],
            field=call.field,
        )
        thread.send_value = None

    def _sys_write(self, thread: SimThread, call: Write) -> None:
        self.emit(
            thread.name,
            EventKind.WRITE,
            component=self._component_name(call.component),
            method=thread.current_frame()[1],
            field=call.field,
        )
        thread.send_value = None

    def _sys_interrupt(self, thread: SimThread, call: Interrupt) -> None:
        self.interrupt(call.thread, by=thread.name)
        thread.send_value = None

    def _sys_get_time(self, thread: SimThread, call: GetTime) -> None:
        thread.send_value = self.clock_time

    def _sys_yield(self, thread: SimThread, call: Yield) -> None:
        self.emit(thread.name, EventKind.YIELD)
        thread.send_value = None

    def step(self) -> bool:
        """Execute one scheduling step.  Returns False at quiescence."""
        if self.fault_injector is not None:
            self.fault_injector.on_step(self)
        if self.spurious_wakeup_rate > 0.0:
            self._maybe_spurious_wakeup()
        if self._timed_deadlines:
            self._expire_timed_waits()
            self._expire_timed_acquires()
        runnable = self._runnable()
        if not runnable:
            if self.auto_tick and self._clock_waiters:
                target = min(t.await_target or 0 for t in self._clock_waiters)
                while self.clock_time < target:
                    self._do_tick(by="<auto>")
                return True
            timed = [
                t.wait_deadline
                for t in self.threads.values()
                if t.state is ThreadState.WAITING and t.wait_deadline is not None
            ]
            timed += [
                t.acquire_deadline
                for t in self.threads.values()
                if t.state is ThreadState.BLOCKED
                and t.acquire_deadline is not None
            ]
            if timed:
                # Quiescent but for timed waiters/acquirers: advance
                # virtual time to the earliest deadline (the virtual-time
                # analogue of auto_tick) instead of declaring STUCK.
                target = min(timed)
                if target > self.time:
                    self.time = target
                self._expire_timed_waits()
                self._expire_timed_acquires()
                return True
            return False
        names = [t.name for t in runnable]
        index = self.scheduler.pick("run", names)
        if not 0 <= index < len(names):
            raise UnknownSyscallError(
                f"scheduler returned invalid index {index} for {len(names)} threads"
            )
        thread = runnable[index]
        if thread.name != self._last_scheduled:
            thread.context_switches += 1
            self._last_scheduled = thread.name
        self.schedule_log.append(thread.name)
        syscall = self._resume(thread)
        self.time += 1
        self.steps += 1
        if syscall is not None:
            try:
                self._dispatch(thread, syscall)
            except (IllegalMonitorStateError, UnknownSyscallError) as exc:
                # Deliver at the faulting yield point, Java-style: the
                # thread sees the exception raised from its wait()/notify().
                thread.throw_exc = exc
        return True

    def run(self) -> RunResult:
        """Run to quiescence or the step budget; never raises for
        concurrency failures — inspect/raise via the :class:`RunResult`."""
        self.scheduler.reset()
        self._ran = True
        status = RunStatus.COMPLETED
        while True:
            if self.abort_reason is not None:
                # Early abort (online detector found a permanent failure):
                # fall through to the normal quiescence diagnosis below.
                break
            if self.steps >= self.max_steps:
                status = RunStatus.STEP_LIMIT
                break
            if not self.step():
                break
        # Close the open blocked/waiting intervals of threads still queued
        # at the end, so the native tick counters include time-to-end (a
        # deadlocked thread's blocked_ticks reach the quiescence point).
        for t in self.threads.values():
            if t.blocked_since is not None:
                t.blocked_ticks += self.time - t.blocked_since
                t.blocked_since = None
            if t.waiting_since is not None:
                t.waiting_ticks += self.time - t.waiting_since
                t.waiting_since = None
        live = [t for t in self.threads.values() if t.is_live()]
        if status is not RunStatus.STEP_LIMIT:
            if live:
                cycle = self._wait_for_cycle()
                status = RunStatus.DEADLOCK if cycle else RunStatus.STUCK
            else:
                status = RunStatus.COMPLETED
        result = RunResult(
            status=status,
            trace=self.trace,
            steps=self.steps,
            thread_results={
                t.name: t.result
                for t in self.threads.values()
                if t.state is ThreadState.TERMINATED
            },
            thread_states={t.name: t.state.value for t in self.threads.values()},
            deadlock_cycle=self._wait_for_cycle() if live else [],
            stuck_threads=[t.name for t in live],
            crashed={
                t.name: t.exception
                for t in self.threads.values()
                if t.state is ThreadState.CRASHED and t.exception is not None
            },
            schedule_log=list(self.schedule_log),
            abort_reason=self.abort_reason,
        )
        return result


#: syscall type -> handler ``(kernel, thread, call)``.  A step pays one
#: dict lookup on the exact type; a subclass of a syscall falls back to
#: :func:`_handler_for_subclass`.
_SYSCALL_HANDLERS: Dict[type, Callable[[Kernel, SimThread, Any], None]] = {
    Acquire: Kernel._sys_acquire,
    Release: Kernel._sys_release,
    Wait: Kernel._sys_wait,
    Notify: Kernel._sys_notify,
    NotifyAll: functools.partial(Kernel._sys_notify, all_waiters=True),
    Read: Kernel._sys_read,
    Write: Kernel._sys_write,
    Interrupt: Kernel._sys_interrupt,
    Tick: Kernel._sys_tick,
    AwaitTime: Kernel._sys_await,
    GetTime: Kernel._sys_get_time,
    Yield: Kernel._sys_yield,
    CallBegin: Kernel._sys_call_begin,
    CallEnd: Kernel._sys_call_end,
    SemAcquire: Kernel._sys_sem_acquire,
    SemRelease: Kernel._sys_sem_release,
    RwAcquire: Kernel._sys_rw_acquire,
    RwRelease: Kernel._sys_rw_release,
    BarrierAwait: Kernel._sys_barrier_await,
}


def _handler_for_subclass(
    cls: type,
) -> Optional[Callable[[Kernel, SimThread, Any], None]]:
    """The handler of ``cls``'s nearest registered base, or None when
    ``cls`` is no known syscall."""
    for base in cls.__mro__[1:]:
        handler = _SYSCALL_HANDLERS.get(base)
        if handler is not None:
            return handler
    return None
