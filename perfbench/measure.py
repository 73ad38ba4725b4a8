"""Closed-loop passes, the host-normalised estimator and the gate.

A *pass* feeds each of a workload's streams once, each to a fresh
``Session`` built outside the timed window.  Before every pass the
benchmark runs ``gc.collect()``, and right before every stream the fixed
calibration routine.  Each stream run is scaled by its own calibration,
``CALIB_REF_S / calibration time``, and every reported timing is the
median over the passes of its scaled values.  The median hides sporadic
pauses only: deterministic costs, garbage collection included, recur in
every pass and stay in the figure.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from perfbench.calibration import CALIB_REF_S, calibrate
from perfbench.tracing import LAYERS, STAGES, TraceSample, Tracer
from perfbench.workloads import (
    LIVE_ALT_BATCH,
    Stream,
    Workload,
    fixed_batches,
    reference_config,
)
from repro import Session

#: Fresh interpreters timed for ``setup_s``, each right after its own
#: calibration: ``SETUP_PER_PASS`` before every pass until there are
#: ``SETUP_INTERPRETERS``, the rest after the timed window.
SETUP_INTERPRETERS = 11
SETUP_PER_PASS = 2
#: Fresh sessions checkpointed for ``state.checkpoint_s``; the fastest
#: counts.
CHECKPOINT_REPEATS = 2


class LatencySink:
    """The benchmark's sink: times each ``WatermarkAdvanced`` on arrival.

    ``call_start`` is set by :func:`feed_stream` before each call; a
    snapshot's latency runs from the start of the call that completed it
    to the sink receiving its watermark event.  Snapshots released by
    ``finish()`` (``call_start is None``) are not samples.
    """

    def __init__(self) -> None:
        self.call_start: float | None = None
        self.latency_s: dict[int, float] = {}

    def on_event(self, event) -> None:
        if event.kind == "watermark" and self.call_start is not None:
            self.latency_s[event.time] = time.perf_counter() - self.call_start

    def close(self) -> None:
        return None


def signature(patterns) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A pattern list as comparable (objects, times) pairs, in order."""
    return [(p.objects, p.times.times) for p in patterns]


def peak_rss_kib() -> int:
    """This process's ``VmHWM`` in KiB (0 where ``/proc`` is absent)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


@dataclass
class StreamRun:
    """One stream fed to completion in one pass."""

    wall_s: float
    latency_s: dict[int, float]
    patterns: list
    modelled_ms: list[float]
    #: The calibration time measured right before this run.
    calibration_s: float = CALIB_REF_S

    @property
    def scale(self) -> float:
        """This run's host factor, ``CALIB_REF_S / calibration_s``."""
        return CALIB_REF_S / self.calibration_s


def open_session(
    workload: Workload, config, sink: LatencySink | None
) -> Session:
    """A measured session: the workload's telemetry setting, one sink."""
    return Session(
        config,
        observability=True if workload.telemetry else None,
        sinks=[sink] if sink is not None else [],
    )


def feed_stream(
    workload: Workload, stream: Stream, config=None, batches=None
) -> StreamRun:
    """Feed one stream through a fresh session; time it from the first
    ``feed_batch`` to ``finish()`` returning.  ``config`` and ``batches``
    replace the stream's own for reference replays."""
    config = config or stream.config
    sink = LatencySink()
    session = open_session(workload, config, sink)
    clock = time.perf_counter
    try:
        started = clock()
        for batch in batches or stream.batches:
            sink.call_start = clock()
            session.feed_batch(batch)
        sink.call_start = None
        session.finish()
        wall = clock() - started
    finally:
        session.close()
    return StreamRun(
        wall_s=wall,
        latency_s=sink.latency_s,
        patterns=session.patterns,
        modelled_ms=[t.latency_seconds * 1000.0 for t in session.meter.timings],
    )


@dataclass
class PassResult:
    """One pass over every stream of a workload."""

    wall_s: float
    runs: list[StreamRun]
    trace: TraceSample | None = None

    @property
    def scaled_s(self) -> float:
        """The pass's wall time, each stream run scaled by its own factor."""
        return sum(run.wall_s * run.scale for run in self.runs)

    @property
    def host_factor(self) -> float:
        """The median of the pass's stream factors."""
        return statistics.median(run.scale for run in self.runs)


def run_pass(
    workload: Workload,
    streams: list[Stream],
    calibration_s: list[float],
    tracer: Tracer | None = None,
) -> PassResult:
    """One pass; the calibration runs right before every stream.  When
    ``tracer`` is given it is installed for this pass only, so untraced
    passes run the plain program."""
    runs = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for stream in streams:
            calibration = calibrate()
            calibration_s.append(calibration)
            run = feed_stream(workload, stream)
            run.calibration_s = calibration
            runs.append(run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return PassResult(
        wall_s=sum(run.wall_s for run in runs),
        runs=runs,
        trace=tracer.sample() if tracer is not None else None,
    )


# ------------------------------------------------------------ estimator


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: list[float]) -> float:
    """IQR divided by the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


@dataclass
class Measurement:
    """Everything one run of one workload measured."""

    passes: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)
    #: ``(set-up seconds, the calibration right before it)`` pairs.
    setup_s: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_kib: int = 0
    rss_reset: bool = False

    @property
    def host_factor(self) -> float:
        """The reference calibration time over the median of this run's
        calibration times; for the info line and the per-layer times."""
        return CALIB_REF_S / statistics.median(self.calibration_s)

    def stream_time_s(self, scaled: bool = True) -> float:
        """Sum over streams of each stream's median run time over the
        passes; ``scaled`` multiplies each run by its own factor first."""
        return sum(
            statistics.median(
                p.runs[i].wall_s * (p.runs[i].scale if scaled else 1.0)
                for p in self.passes
            )
            for i in range(len(self.passes[0].runs))
        )

    def snapshot_latency_s(self, scaled: bool = True) -> list[float]:
        """Each distinct snapshot's median latency over the passes."""
        samples: dict[tuple[int, int], list[float]] = {}
        for result in self.passes:
            for index, run in enumerate(result.runs):
                factor = run.scale if scaled else 1.0
                for snapshot, value in run.latency_s.items():
                    samples.setdefault((index, snapshot), []).append(value * factor)
        return [statistics.median(values) for values in samples.values()]

    def setup_time_s(self, scaled: bool = True) -> float:
        """The median set-up time, each scaled by its own calibration."""
        return statistics.median(
            seconds * (CALIB_REF_S / calibration if scaled else 1.0)
            for seconds, calibration in self.setup_s
        )


def measure(
    workload: Workload,
    streams: list[Stream],
    seconds: float,
    *,
    trace: bool,
    min_passes: int = 3,
    on_pass=None,
    setup=None,
) -> Measurement:
    """Closed-loop passes for ``seconds``; traced runs alternate untraced
    and traced passes so the trace overhead is measured in the same run.
    ``on_pass(result)`` checks each pass's output outside the clock.
    ``setup()`` measures one set-up right after its own calibration;
    ``SETUP_PER_PASS`` run before each pass, so the samples spread over
    the run's host phases, until ``SETUP_INTERPRETERS`` are taken."""
    result = Measurement()
    tracer = Tracer() if trace else None
    # Warm-up: lazy imports, kernel caches and first-call set-up finish
    # before anything is timed.
    feed_stream(workload, streams[0])
    result.rss_reset = reset_peak_rss()
    deadline = time.perf_counter() + seconds
    def probe_setup() -> None:
        calibration = calibrate()
        result.calibration_s.append(calibration)
        result.setup_s.append((setup(), calibration))

    while True:
        for _ in range(SETUP_PER_PASS):
            if setup is not None and len(result.setup_s) < SETUP_INTERPRETERS:
                probe_setup()
        gc.collect()
        traced = tracer is not None and len(result.passes) > len(result.traced)
        outcome = run_pass(
            workload, streams, result.calibration_s, tracer if traced else None
        )
        (result.traced if traced else result.passes).append(outcome)
        if on_pass is not None:
            on_pass(outcome)
        enough = len(result.passes) >= min_passes and (
            tracer is None or len(result.traced) >= min_passes
        )
        if enough and time.perf_counter() >= deadline:
            break
    while setup is not None and len(result.setup_s) < SETUP_INTERPRETERS:
        probe_setup()
    result.peak_rss_kib = peak_rss_kib()
    return result


# ------------------------------------------------------------------- gate


def reference_patterns(
    workload: Workload, streams: list[Stream], *, unshed: bool = False
) -> list[list]:
    """Each stream replayed with the same batches through a serial
    session on the python reference kernels."""
    return [
        signature(
            feed_stream(
                workload, stream, reference_config(stream.config, unshed=unshed)
            ).patterns
        )
        for stream in streams
    ]


def object_set_recall(runs: list[list], references: list[list]) -> float:
    """Pattern object sets of the runs found in the references, over the
    references' object sets, summed over streams."""
    found = total = 0
    for run, reference in zip(runs, references):
        expected = {objects for objects, _times in reference}
        found += len(expected & {objects for objects, _times in run})
        total += len(expected)
    return found / total if total else 1.0


class Gate:
    """Checks each measured pass against the python-kernel reference."""

    def __init__(self, workload: Workload, streams: list[Stream]) -> None:
        self.workload = workload
        self.streams = streams
        self.first: list[list] | None = None
        self.attempted = 0
        self.failed = 0
        self.modelled_ms: list[float] = []

    def on_pass(self, outcome: PassResult) -> None:
        """Compare a pass with the first one, outside the clock."""
        signatures = [signature(run.patterns) for run in outcome.runs]
        self.attempted += len(signatures)
        if self.first is None:
            self.first = signatures
            self.modelled_ms = [ms for run in outcome.runs for ms in run.modelled_ms]
        else:
            self.failed += sum(
                sorted(a) != sorted(b) for a, b in zip(signatures, self.first)
            )
        for run in outcome.runs:
            run.patterns = []

    def check(self) -> tuple[list[str], float, dict]:
        """Replay the references after the timed window; returns the
        problems found, the recall and diagnostics for the info line."""
        problems = []
        reference = reference_patterns(self.workload, self.streams)
        self.failed += sum(
            sorted(a) != sorted(b) for a, b in zip(self.first, reference)
        )
        if self.failed:
            problems.append(
                f"{self.failed} stream runs differ from the python-kernel reference"
            )
        diagnostics: dict = {}
        recall_reference = reference
        if any(s.config.shed_policy != "none" for s in self.streams):
            recall_reference = reference_patterns(
                self.workload, self.streams, unshed=True
            )
            first = self.streams[0]
            records = [r for batch in first.batches for r in batch.to_records()]
            replay = feed_stream(
                self.workload, first, batches=fixed_batches(records, LIVE_ALT_BATCH)
            )
            same = sorted(signature(replay.patterns)) == sorted(self.first[0])
            diagnostics["shed.batch_invariant"] = "yes" if same else "no"
        recall = object_set_recall(self.first, recall_reference)
        return problems, recall, diagnostics


# ----------------------------------------------------------- per-layer


def layer_metrics(
    measurement: Measurement, checkpoint_s: float, checkpoint_bytes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the fastest traced pass (by scaled time),
    times that pass's host factor."""
    fastest = min(measurement.traced, key=lambda p: p.scaled_s)
    h = fastest.host_factor
    sample = fastest.trace
    wall = sample.wall_s
    metrics: dict[str, tuple[float, str]] = {}
    counters = {
        "session": ("events_out",),
        "sync": ("calls", "rows_in", "snapshots_out"),
        "shedding": ("rows_in", "rows_dropped"),
        "inspect": ("calls",),
        "pipeline": ("calls",),
        "kernels": ("calls", "rows_in"),
        "enumeration": ("calls", "patterns_out"),
        "decode": ("calls",),
        "patterns": ("events_out",),
        "observability": ("calls",),
    }
    for layer in LAYERS:
        stats = sample.layers[layer]
        metrics[f"{layer}.self_s"] = (stats.self_s * h, "s")
        metrics[f"{layer}.share"] = (stats.self_s / wall if wall else 0.0, "ratio")
        for name in counters[layer]:
            value = stats.calls if name == "calls" else stats.counts.get(name, 0)
            metrics[f"{layer}.{name}"] = (value, "count")
    for stage in STAGES:
        metrics[f"stages.{stage}.busy_s"] = (sample.stage_busy_s[stage] * h, "s")
    metrics["state.checkpoint_s"] = (checkpoint_s * measurement.host_factor, "s")
    metrics["state.checkpoint_bytes"] = (checkpoint_bytes, "B")
    traced = statistics.median(p.scaled_s for p in measurement.traced)
    untraced = statistics.median(p.scaled_s for p in measurement.passes)
    metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
    metrics["host.factor"] = (measurement.host_factor, "ratio")
    metrics["calib.spread"] = (spread(measurement.calibration_s), "ratio")
    return metrics


def measure_checkpoint(workload: Workload, stream: Stream) -> tuple[float, int]:
    """``Session.checkpoint()`` at the end of a stream, outside any timed
    window: the fastest of ``CHECKPOINT_REPEATS`` fresh sessions, and its
    size."""
    best = float("inf")
    size = 0
    for _ in range(CHECKPOINT_REPEATS):
        session = open_session(workload, stream.config, None)
        try:
            for batch in stream.batches:
                session.feed_batch(batch)
            started = time.perf_counter()
            checkpoint = session.checkpoint()
            best = min(best, time.perf_counter() - started)
            size = len(checkpoint.to_bytes())
            session.finish()
        finally:
            session.close()
    return best, size
