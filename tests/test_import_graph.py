"""Set-up, which imports sdlb, parses scenario documents and builds
topologies, loads only the parameter types and the topology: no model and
no NumPy; and no subcommand loads ``numpy.ma``. Checked in fresh
interpreters, because the test session has long since imported
everything."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdlb
import sdlb.config
import sdlb.queueing
import sdlb.simkernel

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
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "sdlb")))
"""

# every name ``import sdlb`` exports, each one it gave before its names
# were looked up lazily
EXPORTED = (
    "AccessNetworkKind", "BorderEvent", "CellStats", "ConfigError", "FirstOrderValidityError",
    "HscaTimingParams", "LmmFault", "LoadState", "OccupancyOverflowError", "OverheadBreakdown",
    "OverheadParams", "ReliabilityParams", "ScenarioConfig", "ScenarioProbabilities",
    "SimReport", "SimScenario", "StateDistribution", "SystemTypeParams", "TimingParams",
    "Topology", "TransitionKind", "ValidationVerdict", "build_topology", "classify_load",
    "default_config", "horizon_for_events", "integrated_reliability", "load_config",
    "max_junction_lines", "nonperiodic_overhead", "periodic_overhead",
    "prob_bb_update", "prob_state_change", "run_cell_mc", "run_system_sim",
    "scenario_probabilities", "state_probabilities", "total_processing_time_hsca",
    "total_processing_time_sda", "transition_probability", "uniform_reliability_params",
    "validate_against_analytic",
)


def test_set_up_loads_only_config_params_and_topology():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", SET_UP], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "['sdlb', 'sdlb.config', 'sdlb.params', 'sdlb.topology']\n"


# each subcommand on the baseline, in one interpreter; the last line says
# whether ``numpy.ma`` was loaded, which ``np.unique`` and its kin import
# lazily and no step needs
SUBCOMMANDS = """
import sys
from sdlb.cli import main
out = sys.argv[1]
codes = [main(["validate", "--target-events", "20000", "--out", f"{out}/validate"]),
         main(["scenario", "--out", f"{out}/scenario"]),
         main(["figures", "--out", f"{out}/figures"])]
print(codes, "numpy.ma" in sys.modules)
"""


def test_no_subcommand_loads_numpy_ma(tmp_path):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", SUBCOMMANDS, str(tmp_path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, loaded = run.stdout.splitlines()[-1].rsplit(" ", 1)
    # a working validate run may still fail a band (exit 1)
    assert codes in ("[0, 0, 0]", "[1, 0, 0]") and loaded == "False", run.stdout


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_is_its_defining_modules_object(name):
    value = getattr(sdlb, name)
    assert value is getattr(sys.modules[value.__module__], name)


def test_each_type_is_one_class():
    assert sdlb.SystemTypeParams is sdlb.config.SystemTypeParams is sdlb.queueing.SystemTypeParams
    for name in ("SimScenario", "LmmFault", "BorderEvent"):
        assert getattr(sdlb.config, name) is getattr(sdlb.simkernel, name) is getattr(sdlb, name)


# every module but ``__main__``, which runs the command line when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(sdlb.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"sdlb.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_every_lazy_name_resolves():
    assert [name for name in sdlb._MODULE_OF if not hasattr(sdlb, name)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'sdlb' has no attribute 'no_such_name'$"):
        sdlb.no_such_name
