"""Conflict-graph task-offloading simulator for NOMA-enabled multi-hop
edge computing."""

from .model import (AccessPoint, ChannelState, CostWeights,
                    InfeasibleUploadError, InvalidAssignmentError,
                    InvalidTopologyError, MecServer, Metrics, Task, UserDevice,
                    backhaul_rates, group_demand_cps, local_cost, mec_cost,
                    system_metrics)
from .scenario import (ConfigError, Scenario, ScenarioConfig, generate,
                       load_config, realize_channels, with_channel)
from .power import ClusterPowerSolution
from .graph import (ConflictGraph, NomaAssociation, build_full, build_pruned,
                    enumerate_full)
from .mwis import (IndependentSet, greedy_min_wis, modified_ranks, modified_weight,
                   random_maximal_is)
from .offload import (AdmissionPlan, LocalAllocation, admission_control,
                      allocate_local, first_layer_weight, second_layer_weights)
from .schedulers import SCHEMES, OffloadPlan, Schedule, run_scheme
from .harness import (CSV_COLUMNS, ExperimentSpec, HarnessError, ResultRow,
                      emit, read_rows, run_experiment, summarize)

__version__ = "0.1.0"
