"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload taxi-ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs untraced and traced passes alternately and prints the
per-layer metrics.  Either way the pattern output of every pass is
checked against a serial replay on the python reference kernels, an
info line (raw figures, host factor, calibration times, versions, input
digest) is printed first, and the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed check prints ``"correct": false`` and exits 1.
The program under test is the ``src/`` tree next to this directory; the
benchmark exits 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program under {SRC}; nothing to measure\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        raise SystemExit(2)


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def setup_probe(workload, config):
    """A callable timing ``import repro`` + ``Session(...)`` in one fresh
    interpreter; raw seconds."""
    spec = json.dumps(dataclasses.asdict(config))
    child = Path(__file__).resolve().parent / "setup_child.py"
    telemetry = "1" if workload.telemetry else "0"
    command = [sys.executable, str(child), str(SRC), spec, telemetry]

    def probe() -> float:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]

    return probe


def run(args) -> int:
    from perfbench.measure import (
        Gate,
        Measurement,
        layer_metrics,
        measure,
        measure_checkpoint,
        percentile,
    )
    from perfbench.workloads import WORKLOADS, input_digest

    import numpy

    workload = WORKLOADS[args.workload]
    streams = workload.streams(args.seed)
    records = sum(s.records for s in streams)
    gate = Gate(workload, streams)
    measurement: Measurement = measure(
        workload,
        streams,
        args.seconds,
        trace=bool(args.trace),
        on_pass=gate.on_pass,
        setup=None if args.trace else setup_probe(workload, streams[0].config),
    )
    checkpoint = measure_checkpoint(workload, streams[0]) if args.trace else (0.0, 0)
    problems, recall, diagnostics = gate.check()

    def figures(scaled: bool) -> dict:
        latency = measurement.snapshot_latency_s(scaled)
        return {
            "throughput_rps": records / measurement.stream_time_s(scaled),
            "latency_p50_ms": percentile(latency, 50) * 1000.0,
            "latency_p95_ms": percentile(latency, 95) * 1000.0,
            "setup_s": (
                measurement.setup_time_s(scaled) if measurement.setup_s else None
            ),
        }

    scaled = figures(True)
    raw = {**figures(False), "best_pass_s": min(p.wall_s for p in measurement.passes)}
    if args.trace:
        metrics = layer_metrics(measurement, *checkpoint)
    else:
        metrics = {
            "throughput_rps": (scaled["throughput_rps"], "records/s"),
            "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
            "latency_p95_ms": (scaled["latency_p95_ms"], "ms"),
            "setup_s": (scaled["setup_s"], "s"),
            "peak_rss_mb": (measurement.peak_rss_kib / 1024.0, "MiB"),
            "recall": (recall, "ratio"),
        }
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": input_digest(streams),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "records_per_pass": records,
        "snapshots": len(measurement.snapshot_latency_s()),
        "passes": len(measurement.passes),
        "traced_passes": len(measurement.traced),
        "host_factor": measurement.host_factor,
        "calibration_s": measurement.calibration_s,
        "raw": raw,
        "setup_raw_s": [seconds for seconds, _ in measurement.setup_s],
        "pass_walls_s": [p.wall_s for p in measurement.passes],
        "traced_walls_s": [p.wall_s for p in measurement.traced],
        "modelled_p50_ms": (
            percentile(gate.modelled_ms, 50) if gate.modelled_ms else None
        ),
        "peak_rss_reset": measurement.rss_reset,
        "problems": problems,
        **diagnostics,
    }
    print("info " + json.dumps(info))
    if problems:
        sys.stderr.write(f"perfbench: {workload.name}: " + "; ".join(problems) + "\n")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    try:
        return run(args)
    except Exception:  # the run's boundary: report, never pass silently
        traceback.print_exc()
        failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(failed))
        sys.stderr.write(f"perfbench: {args.workload}: the run raised\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
