"""Semi-distributed load balancing for heterogeneous wireless networks:
closed-form overhead/timing/reliability models, a seeded discrete-event
simulator of the underlying protocol, and figure-reproduction sweeps."""

from .config import ConfigError, ScenarioConfig, default_config, load_config
from .overhead import (
    OverheadBreakdown,
    OverheadParams,
    nonperiodic_overhead,
    periodic_overhead,
)
from .queueing import (
    FirstOrderValidityError,
    LoadState,
    OccupancyOverflowError,
    StateDistribution,
    SystemTypeParams,
    TransitionKind,
    classify_load,
    prob_bb_update,
    prob_state_change,
    state_probabilities,
    transition_probability,
)
from .reliability import (
    ReliabilityParams,
    ScenarioProbabilities,
    integrated_reliability,
    scenario_probabilities,
    uniform_reliability_params,
)
from .simkernel import (
    BorderEvent,
    CellStats,
    LmmFault,
    SimReport,
    SimScenario,
    ValidationVerdict,
    horizon_for_events,
    run_cell_mc,
    run_system_sim,
    validate_against_analytic,
)
from .timing import (
    HscaTimingParams,
    TimingParams,
    mm1_delay,
    total_processing_time_hsca,
    total_processing_time_sda,
)
from .topology import (
    AccessNetworkKind,
    Cell,
    Grid,
    Topology,
    build_topology,
    max_junction_lines,
)

__version__ = "0.1.0"
