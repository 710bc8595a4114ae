"""Semi-distributed load balancing for heterogeneous wireless networks:
closed-form overhead/timing/reliability models, a seeded discrete-event
simulator of the underlying protocol, and figure-reproduction sweeps.

Each name below is looked up in its defining module on every use (PEP
562), which imports that module the first time. So ``import sdlb`` loads
no other module, parsing a scenario document loads only ``sdlb.config``,
``sdlb.params`` and ``sdlb.topology``, and a name that a caller replaces
in its module is seen here too."""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "config": ("ConfigError", "ScenarioConfig", "default_config", "load_config"),
        "overhead": ("OverheadBreakdown", "OverheadParams", "nonperiodic_overhead",
                     "periodic_overhead"),
        "params": ("HscaTimingParams", "SystemTypeParams", "TimingParams"),
        "queueing": ("FirstOrderValidityError", "LoadState", "OccupancyOverflowError",
                     "StateDistribution", "TransitionKind", "classify_load", "prob_bb_update",
                     "prob_state_change", "state_probabilities", "transition_probability"),
        "reliability": ("ReliabilityParams", "ScenarioProbabilities", "integrated_reliability",
                        "scenario_probabilities", "uniform_reliability_params"),
        "simkernel": ("CellStats", "SimReport", "horizon_for_events", "run_cell_mc",
                      "run_system_sim"),
        "timing": ("total_processing_time_hsca", "total_processing_time_sda"),
        "topology": ("AccessNetworkKind", "BorderEvent", "LmmFault", "SimScenario", "Topology",
                     "build_topology", "max_junction_lines"),
        "validation": ("ValidationVerdict", "validate_against_analytic"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
