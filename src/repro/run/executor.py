"""RunExecutor: one assembly of kernel + pipeline + sink, reused per run.

The old shape (PR 1-3) rebuilt the whole observation stack for every
single run: ``PipelineFactory`` allocated a fresh
:class:`~repro.detect.online.DetectorPipeline` (seven detector objects
plus a symptom tracker) and ``ObservedFactory`` a fresh
:class:`~repro.obs.sink.InstrumentationSink` (nine state dicts and seven
handler closures) per kernel.  On a campaign shard of a thousand short
runs that is pure allocation overhead on the hot path (benchmarked as
Ext-J).

:class:`RunExecutor` builds each piece **once** and ``reset()``\\ s it
between runs instead.  It satisfies the engine's ``ProgramFactory``
contract (``executor(scheduler) -> Kernel``), so the explorers in
:mod:`repro.testing.explorer` drive it directly — and because it also
carries :attr:`runner` (the SIGALRM-bounded kernel runner), passing an
executor as the factory gives an explorer the matching runner for free.

The per-run wall-clock timeout lives here too (:func:`timed_runner`,
formerly ``engine/worker.py:_timed_runner``): the alarm is armed inside
the ``try`` and both the itimer *and the previous SIGALRM handler* are
restored in ``finally``, so a timeout in one run can never fire into the
next run of the same shard.
"""

from __future__ import annotations

import importlib
import random
import signal
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.detect.online import DetectorPipeline, OnlineDetector
from repro.faults.injector import FaultInjector
from repro.obs.sink import InstrumentationSink
from repro.testing.explorer import (
    ExplorationResult,
    ExplorationRun,
    KernelRunner,
    RunSummary,
    explore_pct,
    explore_random,
    explore_systematic,
)
from repro.vm.kernel import Kernel, RunResult, RunStatus

from .config import RunConfig, RunConfigError
from .registry import DETECTORS, UnknownNameError, load_builtins

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.scheduler import Scheduler

__all__ = ["RunExecutor", "TIMEOUT_ABORT", "timed_runner"]


#: the abort reason a :func:`timed_runner` alarm sets on the kernel; a
#: run that ends with it is reported as ``RunStatus.TIMEOUT``
TIMEOUT_ABORT = "wall-clock timeout"


def timed_runner(timeout: float) -> KernelRunner:
    """A kernel runner that ends a run after ``timeout`` wall-clock
    seconds, returning a TIMEOUT result instead of hanging the shard.

    The SIGALRM handler only calls :meth:`Kernel.request_abort`, so the
    run stops at the next step boundary wherever the signal lands.  It
    must not raise: a handler runs at the next bytecode boundary, which
    can be inside a ``gc.callbacks`` hook, where an exception is
    discarded as unraisable and the one-shot alarm is lost.  The result
    keeps the kernel's own quiescence diagnosis (stuck threads, trace,
    schedule) with its status replaced by TIMEOUT.

    Falls back to plain ``Kernel.run`` where SIGALRM is unavailable
    (non-POSIX, or a non-main thread) — the campaign orchestrator's shard
    deadline still bounds those.  The alarm is armed only after the
    previous handler is saved, and the ``finally`` both cancels the
    itimer and restores that handler, so neither a timeout nor any other
    exception can leak an armed alarm (or a foreign handler) into the
    caller's next run.
    """
    if timeout <= 0 or not hasattr(signal, "SIGALRM"):
        return lambda kernel: kernel.run()

    def run(kernel: Kernel) -> RunResult:
        def _on_alarm(signum: int, frame: Any) -> None:
            kernel.request_abort(TIMEOUT_ABORT)

        try:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
        except ValueError:  # not the main thread (inline mode under test)
            return kernel.run()
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            result = kernel.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if result.abort_reason == TIMEOUT_ABORT:
            return replace(result, status=RunStatus.TIMEOUT)
        return result

    return run


def _scheduler_seed(scheduler: Any) -> int:
    """The seed of the run's scheduler (unwrapping recording wrappers),
    used to key the kernel's environment RNG; 0 for seedless schedulers
    (replay, round-robin) so they too are deterministic."""
    inner = getattr(scheduler, "inner", scheduler)
    seed = getattr(inner, "seed", None)
    return int(seed) if seed is not None else 0


def _coverage_extractor(
    coverage_spec: Optional[str],
) -> Optional[Callable[[Any], List[Tuple[str, str, str, int]]]]:
    """Build a trace -> per-arc hit count extractor from a component spec
    (CoFGs are built once per executor, not once per run)."""
    if not coverage_spec:
        return None
    from repro.analysis import build_all_cofgs
    from repro.coverage.tracker import CoverageTracker

    if ":" in coverage_spec:
        module_name, class_name = coverage_spec.split(":", 1)
    elif "." in coverage_spec:
        module_name, class_name = coverage_spec.rsplit(".", 1)
    else:
        raise RunConfigError(
            f"coverage spec {coverage_spec!r} must be module:Class"
        )
    cls = getattr(importlib.import_module(module_name), class_name)
    cofgs = build_all_cofgs(cls)

    def extract(trace: Any) -> List[Tuple[str, str, str, int]]:
        tracker = CoverageTracker(cofgs)
        tracker.feed(trace)
        hits: List[Tuple[str, str, str, int]] = []
        for method, coverage in tracker.methods.items():
            for (src, dst), count in coverage.hits.items():
                if count:
                    hits.append((method, src, dst, count))
        return hits

    return extract


class RunExecutor:
    """Build and drive runs described by one :class:`RunConfig`.

    The executor *is* a ``ProgramFactory``: calling it with a scheduler
    returns a ready kernel with the (reused) detector pipeline attached
    and the (reused) instrumentation sink installed, per the config.
    Runs within one executor are strictly sequential — the pipeline and
    sink are reset at kernel-build time, and :meth:`summarize` reads the
    assembly of the most recently finished run (the same one-slot
    contract the old per-run wrapper factories had).
    """

    def __init__(self, config: RunConfig) -> None:
        config.validate()
        self.config = config
        self._base_factory: Callable[["Scheduler"], Kernel] = config.build_factory()
        self._pipeline: Optional[DetectorPipeline] = None
        self._sink: Optional[InstrumentationSink] = None
        self._injector: Optional[FaultInjector] = None
        self._extract = _coverage_extractor(config.coverage)
        self._timed: KernelRunner = timed_runner(config.timeout)
        #: the runner matched to this config (timeout + run_wall_seconds
        #: histogram when metrics are on); explorers pick it up
        #: automatically when the executor is passed as the factory
        self.runner: KernelRunner = self._make_runner()

    # -- assembly ----------------------------------------------------------

    @property
    def pipeline(self) -> Optional[DetectorPipeline]:
        """The reused detector pipeline (state of the most recent run)."""
        return self._pipeline

    @property
    def sink(self) -> Optional[InstrumentationSink]:
        """The reused instrumentation sink (state of the most recent run)."""
        return self._sink

    def _build_detectors(self) -> List[OnlineDetector]:
        load_builtins()
        detectors: List[OnlineDetector] = []
        for name in self.config.detect:
            try:
                factory = DETECTORS.get(name)
            except UnknownNameError as exc:
                raise RunConfigError(str(exc)) from None
            detectors.append(factory())
        return detectors

    def __call__(self, scheduler: "Scheduler") -> Kernel:
        """``ProgramFactory`` contract: a fresh kernel wired to the reused
        observation stack."""
        kernel = self._base_factory(scheduler)
        config = self.config
        if config.spurious_rate > 0.0:
            # Reseed the kernel's environment RNG from the run's scheduler
            # seed so the spurious draws are a pure function of the seed
            # (fresh runs, journal --resume, and replay all agree).
            kernel.spurious_wakeup_rate = config.spurious_rate
            kernel.rng = random.Random(_scheduler_seed(scheduler))
        if config.faults is not None:
            if self._injector is None:
                self._injector = FaultInjector(config.faults)
            else:
                self._injector.reset()
            kernel.fault_injector = self._injector
        if config.detect:
            if kernel.trace_mode != config.trace_mode:
                kernel.trace_mode = config.trace_mode
            if self._pipeline is None:
                self._pipeline = DetectorPipeline(self._build_detectors())
            else:
                self._pipeline.reset()
            self._pipeline.attach(kernel)
        if config.metrics:
            if self._sink is None:
                self._sink = InstrumentationSink()
            else:
                self._sink.reset()
            self._sink.install(kernel)
        return kernel

    def _make_runner(self) -> KernelRunner:
        if not self.config.metrics:
            return self._timed
        timed = self._timed

        def run(kernel: Kernel) -> RunResult:
            started = time.perf_counter()
            result = timed(kernel)
            sink = self._sink
            if sink is not None:
                sink.registry.histogram(
                    "run_wall_seconds", "wall-clock duration per run by status"
                ).observe(
                    time.perf_counter() - started, status=result.status.value
                )
            return result

        return run

    # -- execution ---------------------------------------------------------

    def execute(self, scheduler: Optional["Scheduler"] = None) -> RunResult:
        """Assemble and run one kernel (scheduler defaults to the one the
        config describes — seed, replay prefix, and all)."""
        if scheduler is None:
            scheduler = self.config.make_scheduler()
        return self.runner(self(scheduler))

    def summarize(self, run: ExplorationRun) -> RunSummary:
        """The run's compact projection, with detection / metrics /
        coverage attached from this executor's (reused) assembly."""
        arc_hits = (
            self._extract(run.result.trace) if self._extract is not None else ()
        )
        detection = (
            self._pipeline.summary(run.result).to_dict()
            if self._pipeline is not None
            else None
        )
        metrics = (
            self._sink.snapshot().to_dict() if self._sink is not None else None
        )
        return run.summary(arc_hits=arc_hits, detection=detection, metrics=metrics)

    def explore(
        self,
        mode: Optional[str] = None,
        *,
        seeds: Optional[Sequence[int]] = None,
        roots: Optional[Sequence[Sequence[int]]] = None,
        max_runs: int = 500,
        stop_on_failure: bool = False,
        on_run: Optional[Callable[[ExplorationRun], None]] = None,
        keep_runs: bool = True,
    ) -> ExplorationResult:
        """Drive the matching explorer over this executor.

        ``mode`` defaults to the config's scheduler; ``"systematic"``
        enumerates (bounded by ``max_runs`` under ``roots``), while
        ``"random"`` / ``"pct"`` execute one run per entry of ``seeds``.
        """
        config = self.config
        mode = mode or config.scheduler
        if mode == "systematic":
            return explore_systematic(
                self,
                max_runs=max_runs,
                max_depth=config.max_depth,
                branch=config.branch,
                roots=roots,
                stop_on_failure=stop_on_failure,
                on_run=on_run,
                keep_runs=keep_runs,
                runner=self.runner,
            )
        if seeds is None:
            raise RunConfigError(f"explore mode {mode!r} needs seeds")
        if mode == "random":
            return explore_random(
                self,
                seeds=seeds,
                stop_on_failure=stop_on_failure,
                on_run=on_run,
                keep_runs=keep_runs,
                runner=self.runner,
            )
        if mode == "pct":
            return explore_pct(
                self,
                seeds=seeds,
                depth=config.pct_depth,
                expected_steps=config.pct_expected_steps,
                stop_on_failure=stop_on_failure,
                on_run=on_run,
                keep_runs=keep_runs,
                runner=self.runner,
            )
        raise RunConfigError(
            f"cannot explore with scheduler {mode!r} "
            f"(use 'systematic', 'random', or 'pct')"
        )
