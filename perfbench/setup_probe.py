"""Set-up of one workload: parse its scenario documents, build topologies.

Run as a script it is the fresh interpreter ``setup_s`` times: it imports
sdlb, sets up the workload described by the JSON file given as its only
argument, prints ``ready`` and exits.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def set_up(command: str, docs: list[dict]):
    """(configs, topologies) ready for the workload's jobs."""
    from sdlb.config import ScenarioConfig

    configs = [ScenarioConfig.from_dict(doc) for doc in docs]
    topologies = [cfg.topology.build() for cfg in configs] if command == "scenario" else []
    return configs, topologies


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import sdlb  # noqa: F401  - the import is part of what is timed

    spec = json.loads(Path(sys.argv[1]).read_text())
    set_up(spec["command"], spec["docs"])
    print("ready", flush=True)
