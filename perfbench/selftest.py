"""Self-tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they exercise the benchmark's contract, and the full-run
tests take tens of seconds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import run as bench_run  # noqa: E402
from perfbench.calibration import CALIB_REF_S  # noqa: E402
from perfbench.measure import measure  # noqa: E402
from perfbench.tracing import LAYERS, targets  # noqa: E402
from perfbench.workloads import WORKLOADS, input_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_json(*argv: str) -> dict:
    """One in-process benchmark run; its last stdout line, parsed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench_run.main(list(argv))
    if code != 0:
        raise AssertionError(f"benchmark exited {code}: {out.getvalue()[-2000:]}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


class InputTest(unittest.TestCase):
    def test_seed_determines_input(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first = input_digest(workload.streams(11))
                self.assertEqual(first, input_digest(workload.streams(11)))
                self.assertNotEqual(first, input_digest(workload.streams(12)))


class CalibrationTest(unittest.TestCase):
    def test_imports_nothing_from_repro(self):
        source = (ROOT / "perfbench" / "calibration.py").read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        self.assertFalse([m for m in imported if m.split(".")[0] == "repro"])
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from perfbench.calibration import calibrate; calibrate();"
            "print([m for m in sys.modules if m.split('.')[0] == 'repro'])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, str(ROOT)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        self.assertEqual(done.stdout.strip(), "[]")


class EstimatorTest(unittest.TestCase):
    def test_each_run_carries_the_calibration_just_before_it(self):
        workload = WORKLOADS["live-shed"]
        measurement = measure(
            workload, workload.streams(3)[:2], 0.0, trace=False, min_passes=2
        )
        paired = [run.calibration_s for p in measurement.passes for run in p.runs]
        self.assertEqual(paired, measurement.calibration_s)
        for result in measurement.passes:
            for run in result.runs:
                self.assertEqual(run.scale, CALIB_REF_S / run.calibration_s)


class TracingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        workload = WORKLOADS["live-shed"]
        cls.originals = [
            (owner, name, owner.__dict__[name]) for _layer, owner, name, _c in targets()
        ]
        cls.measurement = measure(
            workload, workload.streams(3)[:2], 0.0, trace=True, min_passes=1
        )

    def test_every_layer_has_a_target(self):
        wrapped = {layer for layer, _owner, _name, _counter in targets()}
        self.assertEqual(wrapped, set(LAYERS))

    def test_originals_restored(self):
        for owner, name, original in self.originals:
            with self.subTest(owner=owner, name=name):
                self.assertIs(owner.__dict__[name], original)
                self.assertFalse(hasattr(owner.__dict__[name], "__wrapped__"))

    def test_self_times_partition_the_traced_wall(self):
        for result in self.measurement.traced:
            sample = result.trace
            self_times = [stats.self_s for stats in sample.layers.values()]
            self.assertGreater(sample.wall_s, 0.0)
            self.assertTrue(all(value >= -1e-9 for value in self_times))
            self.assertTrue(
                math.isclose(sum(self_times), sample.wall_s, rel_tol=1e-9)
            )
            self.assertLessEqual(sample.wall_s, result.wall_s * 1.001)


class ContractTest(unittest.TestCase):
    def check(self, result: dict, declared: list[dict]) -> None:
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {entry["name"] for entry in declared})
        for name in metrics:
            self.assertTrue(NAME.fullmatch(name), name)
        for entry in declared:
            self.assertTrue(NAME.fullmatch(entry["name"]), entry["name"])
            self.assertEqual(metrics[entry["name"]]["unit"], entry["unit"])

    def test_end_to_end_metrics(self):
        result = _run_json(
            "--workload", "live-shed", "--seed", "2", "--seconds", "0", "--trace", "0"
        )
        self.check(result, SPEC["end_to_end"])
        for entry in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][entry["name"]]["value"], 0.0)

    def test_per_layer_metrics(self):
        result = _run_json(
            "--workload", "live-shed", "--seed", "2", "--seconds", "0", "--trace", "1"
        )
        self.check(result, SPEC["per_layer"])
        self.assertGreater(result["metrics"]["inspect.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
