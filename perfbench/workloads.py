"""The benchmark's named workloads: seeded input streams plus configs.

A workload is a list of :class:`Stream` objects built from one seed.
Each stream carries its own record batches (the exact ``feed_batch``
boundaries) and the complete :class:`~repro.core.config.ICPEConfig` it
runs under.  Every config field the measured path depends on — kernels,
enumerator, backend, shedding, pattern family, parallelism — is spelled
out here rather than taken from ``ICPEConfig`` defaults, so a change of
a library default cannot silently change a workload.  Implanted group
sizes are fixed, not drawn, so the amount of work does not swing with
the seed.

Why each workload exists, and which layers it loads, is recorded in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable

from repro import ICPEConfig, PatternConstraints, RecordBatch
from repro.data.brinkhoff import BrinkhoffConfig, generate_brinkhoff
from repro.data.dataset import TrajectoryDataset
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.streaming.shuffle import bounded_shuffle

#: Micro-batch size of ``live-shed`` and the second size its shedding
#: batch-invariance diagnostic replays with.
LIVE_BATCH = 64
LIVE_ALT_BATCH = 48


@dataclass(frozen=True)
class Stream:
    """One input stream: its ``feed_batch`` batches and its config."""

    batches: tuple[RecordBatch, ...]
    config: ICPEConfig
    records: int


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build its streams and open its sessions."""

    name: str
    #: The workload's streams for a seed (same seed, same input).
    streams: Callable[[int], list[Stream]]
    #: ``observability=`` argument of every measured ``Session``.
    telemetry: bool = False


def _stream_seeds(family: str, seed: int, count: int) -> list[int]:
    """Per-stream generator seeds derived from the command-line seed."""
    rng = random.Random(f"perfbench:{family}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _config(dataset: TrajectoryDataset, **fields) -> ICPEConfig:
    """A config with every behaviour-relevant field stated explicitly."""
    spelled = dict(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=5,
        metric_name="l1",
        allocate_parallelism=8,
        query_parallelism=16,
        enumerate_parallelism=16,
        lemma1=True,
        lemma2=True,
        local_index="rtree",
        max_delay=0,
        trajectory_ttl=None,
        vba_candidate_retention=None,
        backend="serial",
        parallel_workers=None,
        clustering_kernel="numpy",
        enumeration_kernel="numpy",
        shed_policy="none",
        shed_rate=0.0,
        shed_seed=0,
        target_p99_ms=None,
        checkpoint_every_records=None,
        checkpoint_every_seconds=None,
        pattern_family="strict",
        evolving_theta=0.5,
        prediction_min_probability=0.0,
    )
    spelled.update(fields)
    return ICPEConfig(**spelled)


def per_snapshot_batches(dataset: TrajectoryDataset) -> tuple[RecordBatch, ...]:
    """One batch per snapshot of a time-ordered dataset."""
    packed = dataset.to_batch()
    times = packed.times.tolist()
    cuts = [0]
    cuts.extend(i for i in range(1, len(times)) if times[i] != times[i - 1])
    cuts.append(len(times))
    return tuple(packed[a:b] for a, b in zip(cuts, cuts[1:]))


def fixed_batches(records, size: int) -> tuple[RecordBatch, ...]:
    """Records packed, in the given order, into batches of ``size``."""
    packed = RecordBatch.from_records(records)
    return tuple(packed[i : i + size] for i in range(0, len(packed), size))


# ------------------------------------------------------------------ taxi


TAXI_STREAMS = 5


def _taxi_dataset(stream_seed: int) -> TrajectoryDataset:
    return generate_taxi(
        TaxiConfig(
            n_objects=600,
            horizon=50,
            group_fraction=0.25,
            group_size=(8, 8),
            seed=stream_seed,
        )
    )


def _taxi_streams(seed: int) -> list[Stream]:
    streams = []
    for stream_seed in _stream_seeds("taxi", seed, TAXI_STREAMS):
        dataset = _taxi_dataset(stream_seed)
        config = _config(
            dataset,
            constraints=PatternConstraints(m=6, k=12, l=2, g=2),
            enumerator="fba",
        )
        streams.append(
            Stream(per_snapshot_batches(dataset), config, len(dataset))
        )
    return streams


# ------------------------------------------------------------- brinkhoff


BRINKHOFF_STREAMS = 7
#: Last snapshot fed of each 40-snapshot stream.  Group end times are
#: drawn from [35, 40]; a group's end closes every member's VBA bit
#: string at once, a 5-70 ms burst on about 5% of the snapshots, which
#: put p95 on the knee between body and tail and made it swing with the
#: seed.  Feeding t <= 34 moves every such burst into ``finish()``: it
#: still counts in throughput, but is no latency sample, so the latency
#: figures of this workload do not time VBA's output path (see NOTES).
BRINKHOFF_LAST_TIME = 34


def _brinkhoff_streams(seed: int) -> list[Stream]:
    streams = []
    for stream_seed in _stream_seeds("brinkhoff", seed, BRINKHOFF_STREAMS):
        generated = generate_brinkhoff(
            BrinkhoffConfig(
                n_objects=140,
                horizon=40,
                group_fraction=0.6,
                group_size=(15, 15),
                dropout_probability=0.04,
                seed=stream_seed,
            )
        ).restrict_objects(0.8)
        dataset = TrajectoryDataset(
            generated.name,
            [r for r in generated.records if r.time <= BRINKHOFF_LAST_TIME],
        )
        config = _config(
            dataset,
            constraints=PatternConstraints(m=5, k=10, l=2, g=2),
            enumerator="vba",
        )
        streams.append(
            Stream(per_snapshot_batches(dataset), config, len(dataset))
        )
    return streams


# ------------------------------------------------------------- live-shed


LIVE_STREAMS = 32
LIVE_MAX_DELAY = 2


def _live_records(stream_seed: int):
    """A small taxi stream shuffled within the bounded delay."""
    dataset = generate_taxi(
        TaxiConfig(
            n_objects=40,
            horizon=20,
            group_fraction=0.5,
            group_size=(5, 5),
            seed=stream_seed,
        )
    )
    shuffled = list(
        bounded_shuffle(
            dataset.records,
            LIVE_MAX_DELAY,
            random.Random(stream_seed ^ 0x5EED),
        )
    )
    return dataset, shuffled


def _live_config(dataset: TrajectoryDataset) -> ICPEConfig:
    return _config(
        dataset,
        min_pts=3,
        constraints=PatternConstraints(m=3, k=8, l=2, g=2),
        enumerator="fba",
        max_delay=LIVE_MAX_DELAY,
        shed_policy="pattern_aware",
        shed_rate=0.3,
        shed_seed=7,
        target_p99_ms=None,
        pattern_family="predictive",
        prediction_min_probability=0.0,
    )


def _live_streams(seed: int) -> list[Stream]:
    streams = []
    for stream_seed in _stream_seeds("live", seed, LIVE_STREAMS):
        dataset, shuffled = _live_records(stream_seed)
        streams.append(
            Stream(
                fixed_batches(shuffled, LIVE_BATCH),
                _live_config(dataset),
                len(shuffled),
            )
        )
    return streams


# -------------------------------------------------------------- registry


#: The workloads by name; why each exists is in ``perfbench/NOTES.md``
#: and ``BENCHMARK.json``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("taxi-ingest", _taxi_streams),
        Workload("brinkhoff-dense", _brinkhoff_streams),
        Workload("live-shed", _live_streams, telemetry=True),
    )
}


def reference_config(config: ICPEConfig, *, unshed: bool = False) -> ICPEConfig:
    """The python-kernel oracle of a measured config."""
    reference = replace(
        config,
        clustering_kernel="python",
        enumeration_kernel="python",
    )
    if unshed:
        reference = replace(reference, shed_policy="none", shed_rate=0.0)
    return reference


def input_digest(streams: list[Stream]) -> str:
    """SHA-256 over every stream's columns and batch boundaries."""
    digest = hashlib.sha256()
    for stream in streams:
        digest.update(repr(stream.config).encode())
        for batch in stream.batches:
            digest.update(len(batch).to_bytes(8, "little"))
            for column in (
                batch.oids,
                batch.xs,
                batch.ys,
                batch.times,
                batch.last_times,
            ):
                digest.update(column.tobytes())
    return digest.hexdigest()
