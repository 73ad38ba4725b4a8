"""Set-up probe: ``import repro`` plus ``Session(...)`` in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python3 setup_child.py <src-dir>
<config-json> <telemetry 0|1>``; prints the set-up wall seconds as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    src, spec, telemetry = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, src)
    started = time.perf_counter()
    import repro
    from repro import ICPEConfig, PatternConstraints, Session
    from repro.streaming.cluster import ClusterModel

    config = ICPEConfig(
        **{
            **spec,
            "constraints": PatternConstraints(**spec["constraints"]),
            "cluster": ClusterModel(**spec["cluster"]),
        }
    )
    session = Session(config, observability=True if telemetry else None)
    elapsed = time.perf_counter() - started
    session.close()
    print(json.dumps({"setup_s": elapsed, "repro": repro.__file__}))


if __name__ == "__main__":
    main()
