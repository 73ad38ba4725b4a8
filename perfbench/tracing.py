"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry point of each layer — a class
method or a module-level function binding of ``repro`` — with a timing
shim, records one span per call, and restores every original attribute
on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited: the
shims are installed on the live classes and modules for the duration of
a traced pass, so untraced passes run the plain program.

A layer's self time is its spans' wall time minus the time its child
spans cover, so the self times of all layers sum exactly to the wall
time of the root spans (the ``Session`` calls the benchmark makes).
Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Layers in report order; each maps to the repro module it lives in.
LAYERS = (
    "session",
    "sync",
    "shedding",
    "inspect",
    "pipeline",
    "kernels",
    "enumeration",
    "decode",
    "patterns",
    "observability",
)

#: ``ICPEPipeline.last_spans`` stage names read after each pipeline call.
STAGES = ("allocate", "query", "cluster", "enumerate")

#: Modules whose classes must be imported before their subclasses can be
#: found and wrapped (plugin modules load lazily through the registry).
_PLUGIN_MODULES = (
    "repro.kernels.python_ref",
    "repro.kernels.numpy_kernel",
    "repro.enumeration.kernels.python_ref",
    "repro.enumeration.kernels.numpy_kernel",
    "repro.shedding.policy",
    "repro.patterns.evolving",
    "repro.patterns.prediction",
)


@dataclass
class LayerStats:
    """Self time, call count and work counters of one layer."""

    self_s: float = 0.0
    calls: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


@dataclass
class TraceSample:
    """The layer statistics of one traced pass."""

    layers: dict[str, LayerStats]
    stage_busy_s: dict[str, float]
    wall_s: float


# ------------------------------------------------------------- counters


def _rows_snapshots(stats: LayerStats, args, result) -> None:
    if len(args) > 1:  # feed_batch(batch); flush() has no rows
        stats.add("rows_in", len(args[1]))
    stats.add("snapshots_out", len(result))


def _events(stats: LayerStats, args, result) -> None:
    stats.add("events_out", len(result))


def _shed_rows(stats: LayerStats, args, result) -> None:
    stats.add("rows_in", len(args[1]))
    stats.add("rows_dropped", len(result))


def _kernel_rows(stats: LayerStats, args, result) -> None:
    stats.add("rows_in", len(args[1]))


def _patterns_out(stats: LayerStats, args, result) -> None:
    stats.add("patterns_out", len(result))


def _calls_only(stats: LayerStats, args, result) -> None:
    return None


def _subclasses(base: type) -> list[type]:
    """``base`` and every subclass, depth first, without duplicates."""
    seen: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def _methods(base: type, names: tuple[str, ...]):
    """(owner, name) for every class in ``base``'s tree defining a name."""
    for cls in _subclasses(base):
        for name in names:
            if name in cls.__dict__:
                yield cls, name


def targets() -> list[tuple[str, Any, str, Callable]]:
    """Every (layer, owner, attribute, counter) the tracer wraps."""
    for module in _PLUGIN_MODULES:
        importlib.import_module(module)
    from repro.core.icpe import ICPEPipeline
    from repro.enumeration import bitstring
    from repro.enumeration.kernels.base import EnumerationKernel
    from repro.kernels.base import ClusteringKernel
    from repro.observability import SessionTelemetry
    from repro.patterns.base import PatternFamily
    from repro.session.session import Session
    from repro.shedding.policy import ShedPolicy
    from repro.streaming.sync import TimeSyncOperator

    found: list[tuple[str, Any, str, Callable]] = [
        ("session", Session, "feed_batch", _events),
        ("session", Session, "finish", _events),
        ("sync", TimeSyncOperator, "feed_batch", _rows_snapshots),
        ("sync", TimeSyncOperator, "flush", _rows_snapshots),
        ("inspect", ICPEPipeline, "protected_oids", _calls_only),
        ("inspect", ICPEPipeline, "forming_candidates", _calls_only),
        ("pipeline", ICPEPipeline, "process_snapshot", _calls_only),
        ("pipeline", ICPEPipeline, "finish", _calls_only),
        ("observability", SessionTelemetry, "on_watermark", _calls_only),
        ("observability", SessionTelemetry, "observe_spans", _calls_only),
        ("observability", SessionTelemetry, "observe_events", _calls_only),
    ]
    for owner, name in _methods(ShedPolicy, ("select_drops",)):
        found.append(("shedding", owner, name, _shed_rows))
    for owner, name in _methods(ClusteringKernel, ("cluster_columns",)):
        found.append(("kernels", owner, name, _kernel_rows))
    for owner, name in _methods(EnumerationKernel, ("on_snapshot", "finish")):
        found.append(("enumeration", owner, name, _patterns_out))
    for owner, name in _methods(PatternFamily, ("on_snapshot", "finish")):
        found.append(("patterns", owner, name, _events))
    # Definition-15 decode is a module function: wrap every repro module
    # binding of it, since each caller looks it up in its own namespace.
    decode = bitstring.valid_sequences_of_bits
    for module_name, module in sorted(sys.modules.items()):
        if module_name.startswith("repro") and (
            getattr(module, "valid_sequences_of_bits", None) is decode
        ):
            found.append(("decode", module, "valid_sequences_of_bits", _calls_only))
    return found


class Tracer:
    """Installs layer shims; accumulates spans while installed."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Start a new sample (statistics of one traced pass)."""
        self.layers = {name: LayerStats() for name in LAYERS}
        self.stage_busy_s = {name: 0.0 for name in STAGES}
        self.root_s = 0.0

    def sample(self) -> TraceSample:
        """The statistics accumulated since the last :meth:`reset`."""
        return TraceSample(self.layers, self.stage_busy_s, self.root_s)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target; idempotent only through :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, owner, name, counter in targets():
            original = owner.__dict__[name]
            self._patches.append((owner, name, original))
            setattr(owner, name, self._shim(layer, original, counter))

    def uninstall(self) -> None:
        """Put every original attribute back, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _shim(self, layer: str, original, counter):
        tracer = self
        clock = time.perf_counter
        pipeline = layer == "pipeline"

        def shim(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                stats = tracer.layers[layer]
                stats.self_s += elapsed - children
                stats.calls += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.root_s += elapsed
            counter(stats, args, result)
            if pipeline:
                busy = tracer.stage_busy_s
                for span in args[0].last_spans:
                    if span.stage in busy:
                        busy[span.stage] += span.busy_seconds
            return result

        shim.__wrapped__ = original
        shim.__name__ = getattr(original, "__name__", "shim")
        return shim
