"""repro.run — declarative run assembly.

One layer that names every ingredient of a run (:mod:`.registry`),
serializes a complete run description (:mod:`.config`), and turns that
description into executed kernels with a reused observation stack
(:mod:`.executor`).  The CLI, the explorers, and the campaign engine all
build runs through here.

Importing this package is cheap: only the stdlib-backed registry and
config modules load eagerly.  The executor (which pulls in the vm /
detect / obs layers) is resolved lazily on first attribute access, so
low-level modules can import :mod:`repro.run.registry` to self-register
without creating an import cycle.
"""

from __future__ import annotations

from typing import Any

from .config import (
    DETECTOR_ORDER,
    RunConfig,
    RunConfigError,
    Scenario,
    load_scenario,
    normalize_detect,
    parse_seed_spec,
)
from .registry import (
    COMPONENTS,
    DETECTORS,
    SCHEDULERS,
    WORKLOADS,
    Registry,
    UnknownNameError,
    load_builtins,
    register_component,
    register_detector,
    register_scheduler,
    register_workload,
)

__all__ = [
    "COMPONENTS",
    "DETECTORS",
    "DETECTOR_ORDER",
    "Registry",
    "RunConfig",
    "RunConfigError",
    "RunExecutor",
    "SCHEDULERS",
    "Scenario",
    "UnknownNameError",
    "WORKLOADS",
    "load_builtins",
    "load_scenario",
    "normalize_detect",
    "parse_seed_spec",
    "register_component",
    "register_detector",
    "register_scheduler",
    "register_workload",
    "timed_runner",
]

_LAZY = {"RunExecutor", "timed_runner"}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from . import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
