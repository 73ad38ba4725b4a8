"""Fixed host-speed calibration routine.

The benchmark runs :func:`calibrate` right before every stream of every
pass, and right before every set-up probe.  Each timed run is scaled by
its own calibration, ``CALIB_REF_S / calibration time``, so that it reads
in seconds at the reference host speed (see ``perfbench/measure.py``).

The routine mixes the three kinds of work the measured program does:
dict, tuple and sort work in pure Python over a working set of a few
MiB, one large NumPy sort, and many NumPy calls on arrays of a few dozen
elements, whose cost is mostly call overhead.  A host slowdown that hits
any of them — a neighbour on the same core or contending for the memory
caches — shows up in the calibration as it does in the program.

This module must import nothing from ``repro``: a change to the program
must never move the yardstick it is measured with.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Median calibration wall time, in seconds, on the reference host (the
#: 2-core Linux container the benchmark was tuned on, Python 3.11, NumPy
#: 2.4).  Changing it rescales every reported timing, so it is fixed for
#: the life of the benchmark.
CALIB_REF_S = 0.033

_KEYS = 60_000
_ARRAY = 100_000
_PROBES = 4_000
_SMALL = 16

_keys = [random.Random(20190701).randrange(1 << 30) for _ in range(_KEYS)]
_values = np.random.default_rng(20190701).random(_ARRAY)
_small = [
    np.sort(np.random.default_rng(index).integers(0, 1 << 40, 48))
    for index in range(_SMALL)
]
_probes = [int(v) for v in np.random.default_rng(99).integers(0, 1 << 40, _PROBES)]


def calibrate() -> float:
    """Run the fixed routine once; returns its wall time in seconds."""
    started = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    for index, key in enumerate(_keys):
        table[key] = (index, key & 0xFF)
    checksum = sum(table[key][1] for key in _keys[::3])
    ranked = sorted(table.values(), key=lambda item: item[1])
    checksum += ranked[-1][1]
    checksum += int(np.argsort(_values, kind="stable")[0])
    for index, value in enumerate(_probes):
        keys = _small[index % _SMALL]
        checksum += int(np.searchsorted(keys, np.array([value], dtype=np.int64))[0])
        if index % 8 == 0:
            checksum += int(np.unique(keys >> np.int64(8)).size)
    elapsed = time.perf_counter() - started
    if checksum <= 0:  # consumes the result; never true
        raise AssertionError("calibration checksum underflow")
    return elapsed
