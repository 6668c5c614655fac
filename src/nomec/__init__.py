"""Conflict-graph task-offloading simulator for NOMA-enabled multi-hop
edge computing."""

from .model import (AccessPoint, ChannelState, CostWeights,
                    InfeasibleUploadError, InvalidAssignmentError,
                    InvalidTopologyError, MecServer, Metrics, RrbAssignment,
                    Task, UserDevice, backhaul_rate, local_cost, mec_cost,
                    sinr, system_metrics, uplink_rate)
from .scenario import (ConfigError, Scenario, ScenarioConfig, generate,
                       load_config, realize_channels, with_channel)
from .power import (ClusterPowerSolution, PowerConstraints, grid_oracle,
                    solve_cluster_power)
from .graph import (ConflictGraph, NomaAssociation, build_full, build_pruned,
                    conflicts, enumerate_full, modified_weight, vertex_weight)
from .mwis import (IndependentSet, exact_min_wis, greedy_min_wis,
                   is_independent, is_maximal, modified_ranks,
                   random_maximal_is)
from .offload import (AdmissionPlan, LocalAllocation, admission_control,
                      allocate_local, first_layer_weight, second_layer_weight)
from .schedulers import (SCHEMES, OffloadPlan, Schedule, run_baseline,
                         run_joint, run_pruning, run_scheme)
from .harness import (CSV_COLUMNS, ExperimentSpec, HarnessError, ResultRow,
                      emit, read_rows, run_experiment, summarize)

__version__ = "0.1.0"
