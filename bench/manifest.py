#!/usr/bin/env python3
"""Write BENCHMARK.json at the repository root from the definitions in run.py.

    python3 bench/manifest.py
"""

from __future__ import annotations

import json

import run

#: Seconds one run measures; cli_pipeline needs about 28 s for its 100 ops.
RUN_SECONDS = 30


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in run.WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in run.END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in run.per_layer_names().items()
        ],
    }


if __name__ == "__main__":
    path = run.ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path}")
