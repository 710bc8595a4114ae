"""Set-up, which imports sdlb, parses scenario documents and builds
topologies, runs without loading NumPy. Checked in a fresh interpreter,
because the test session has long since imported it."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SET_UP = """
import sys

import sdlb
from sdlb.config import ScenarioConfig, default_config

doc = default_config().to_dict()
doc["sim"].update(faults=[{"time": 7.0, "lmm_id": 1}],
                  borders=[{"time": 5.0, "cell_id": c} for c in range(3)])
cfg = ScenarioConfig.from_dict(doc)
assert len(cfg.sim.faults) == 1 and len(cfg.sim.borders) == 3
assert cfg.topology.build().cell_count == 21
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))

import sdlb.simkernel

for name in ("CellStats", "SimReport", "horizon_for_events", "run_cell_mc", "run_system_sim"):
    assert getattr(sdlb, name) is getattr(sdlb.simkernel, name), name
for name in ("SimScenario", "LmmFault", "BorderEvent"):
    assert getattr(sdlb.config, name) is getattr(sdlb.simkernel, name) is getattr(sdlb, name), name
try:
    sdlb.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_set_up_leaves_numpy_unloaded():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", SET_UP], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\nmodule 'sdlb' has no attribute 'no_such_name'\n"
