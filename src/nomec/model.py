"""Core system model: entities, the backhaul rate, and per-group cost
formulas. Uplink SIC rates come from the power solve in power.py.

Units are SI throughout: bits, cycles, seconds, watts, Hz. Channel gains are
linear power gains (dimensionless), noise is total watts over one RRB.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class InvalidAssignmentError(ValueError):
    """A UD/RRB reference that the schedule or channel does not know about."""


class InvalidTopologyError(ValueError):
    """A link (UD-AP or AP-MEC) is missing from the channel state."""


class InfeasibleUploadError(ValueError):
    """An upload rate of zero or less where a positive rate is required."""


@dataclass(frozen=True)
class Task:
    """One computation task: size_bits to upload, density cycles per bit,
    deadline_s wall-clock completion budget."""
    size_bits: float
    density_cpb: float
    deadline_s: float

    def __post_init__(self):
        if self.size_bits <= 0 or self.density_cpb <= 0 or self.deadline_s <= 0:
            raise ValueError("task fields must be positive")

    @property
    def cycles(self) -> float:
        return self.size_bits * self.density_cpb


@dataclass(frozen=True)
class UserDevice:
    id: int
    position: tuple
    p_max_w: float
    task: Task

    def __post_init__(self):
        if self.p_max_w <= 0:
            raise ValueError("p_max_w must be positive")


@dataclass(frozen=True)
class AccessPoint:
    id: int
    position: tuple
    num_rrbs: int
    f_loc_max_cps: float
    q_tx_w: float          # backhaul transmit power
    q_idle_w: float        # power drawn while waiting on MEC results
    coverage_radius_m: float

    def __post_init__(self):
        if self.num_rrbs < 1:
            raise ValueError("num_rrbs must be >= 1")
        if min(self.f_loc_max_cps, self.q_tx_w, self.coverage_radius_m) <= 0:
            raise ValueError("AP physical fields must be positive")
        if self.q_idle_w < 0:
            raise ValueError("q_idle_w must be >= 0")


@dataclass(frozen=True)
class MecServer:
    id: int
    position: tuple
    f_mec_cps: float

    def __post_init__(self):
        if self.f_mec_cps <= 0:
            raise ValueError("f_mec_cps must be positive")


@dataclass(frozen=True)
class CostWeights:
    w_latency: float = 0.5
    w_energy: float = 0.5
    alpha_cpu: float = 1e-27       # effective switched capacitance
    rate_threshold_bps: float = 5e4

    def __post_init__(self):
        if self.w_latency < 0 or self.w_energy < 0:
            raise ValueError("objective weights must be >= 0")
        if self.alpha_cpu < 0 or self.rate_threshold_bps < 0:
            raise ValueError("alpha_cpu and rate_threshold_bps must be >= 0")


@dataclass(frozen=True)
class ChannelState:
    """One realization of all link gains.

    gain_ud_rrb[ud_id, ap_id, rrb] is a linear uplink power gain, an
    (N, M, Z) array; gain_ap_mec[ap_id, mec_id] likewise for the backhaul
    hop, an (M, K) array. Every gain is finite and >= 0; a zero gain is a
    dead link. noise_w is the receiver noise over one RRB of
    rrb_bandwidth_hz.
    """
    gain_ud_rrb: np.ndarray
    gain_ap_mec: np.ndarray
    noise_w: float
    rrb_bandwidth_hz: float

    def __post_init__(self):
        if self.noise_w <= 0 or self.rrb_bandwidth_hz <= 0:
            raise ValueError("noise_w and rrb_bandwidth_hz must be positive")
        for name, ndim in (("gain_ud_rrb", 3), ("gain_ap_mec", 2)):
            gains = np.asarray(getattr(self, name), dtype=float)
            if gains.ndim != ndim:
                raise ValueError(f"{name} must be a {ndim}-d array, got shape {gains.shape}")
            if not ((gains >= 0) & (gains < np.inf)).all():     # NaN fails both
                raise ValueError(f"{name} must hold finite gains >= 0")
            object.__setattr__(self, name, gains)


@dataclass(frozen=True)
class Metrics:
    latency_s: float
    energy_j: float
    cost: float
    effective_capacity: int
    scheduled_uds: int


def backhaul_rates(aps, mecs, channel: ChannelState, bandwidth_scaled: bool = True) -> dict:
    """Per AP id in aps, the AP-to-MEC transfer rate of its link to each
    MEC in mecs, in that order: B * log2(1 + q_tx * gain / noise) bits/s,
    or the bare log2 term when not bandwidth_scaled. An AP or MEC id
    outside the backhaul gains is refused: numpy would wrap a negative
    index onto another link."""
    ap_ids, mec_ids = [ap.id for ap in aps], [mec.id for mec in mecs]
    shape = channel.gain_ap_mec.shape
    if any(not 0 <= i < n for ids, n in zip((ap_ids, mec_ids), shape) for i in ids):
        raise InvalidTopologyError(f"no backhaul gains for ap ids {ap_ids} -> mec ids "
                                   f"{mec_ids} among gains of shape {shape}")
    rows = channel.gain_ap_mec[:, mec_ids].tolist()
    scale = channel.rrb_bandwidth_hz if bandwidth_scaled else 1.0
    return {ap.id: [scale * math.log2(1.0 + ap.q_tx_w * gain / channel.noise_w)
                    for gain in rows[ap.id]] for ap in aps}


class GroupTotals(NamedTuple):
    """What every cost formula reads of a nonempty group, from one pass
    over it in order: the slowest upload (0.0 when no rates are given),
    the bits, cycles and densities each summed left to right, the
    tightest deadline and the group size."""
    upload_s: float
    bits: float
    cycles: float
    density_cpb: float
    deadline_s: float
    size: int


def _group_totals(tasks, rates=None) -> GroupTotals:
    """The GroupTotals of a group of Tasks, in one plain loop; rates, when
    given, are their upload rates in the same order."""
    upload = bits = cycles = density = 0.0
    deadline = math.inf
    for task, rate in zip(tasks, itertools.repeat(math.inf) if rates is None else rates):
        if rate <= 0:
            raise InfeasibleUploadError("upload rate must be positive")
        size, per_bit = task.size_bits, task.density_cpb
        if size / rate > upload:
            upload = size / rate
        bits += size
        cycles += size * per_bit        # task.cycles
        density += per_bit
        if task.deadline_s < deadline:
            deadline = task.deadline_s
    return GroupTotals(upload, bits, cycles, density, deadline, len(tasks))


def _local_cost(totals: GroupTotals, f_loc: float, weights: CostWeights):
    if f_loc <= 0:
        raise ValueError("f_loc must be positive for a nonempty group")
    delay = totals.upload_s + totals.cycles / f_loc
    energy = weights.alpha_cpu * totals.cycles * f_loc ** 2
    return delay, energy


def local_cost(group, f_loc: float, weights: CostWeights):
    """(delay_s, energy_j) for processing a collected group at the AP.

    group is a sequence of (Task, upload_rate_bps). Delay is the slowest
    upload plus the serial compute time of all cycles at f_loc; energy is
    the CPU energy alpha * cycles * f_loc^2.
    """
    if not group:
        return 0.0, 0.0
    return _local_cost(_group_totals(*zip(*group)), f_loc, weights)


def _mec_cost(totals: GroupTotals, ap: AccessPoint, mec: MecServer, channel: ChannelState,
              bandwidth_scaled: bool):
    rate_bh = backhaul_rates([ap], [mec], channel, bandwidth_scaled)[ap.id][0]
    if rate_bh <= 0:
        raise InvalidTopologyError(f"backhaul ap {ap.id} -> mec {mec.id} has zero rate")
    t_fwd = totals.bits / rate_bh
    t_cpu = totals.cycles / mec.f_mec_cps
    delay = totals.upload_s + t_fwd + t_cpu
    energy = t_fwd * ap.q_tx_w + t_cpu * ap.q_idle_w
    return delay, energy


def mec_cost(group, ap: AccessPoint, mec: MecServer, channel: ChannelState,
             weights: CostWeights, bandwidth_scaled: bool = True):
    """(delay_s, energy_j) for offloading a collected group over the backhaul.

    Delay: slowest upload + forwarding all bits at the backhaul rate + MEC
    compute. Energy: AP transmit energy during forwarding plus idle draw
    while the MEC computes.
    """
    if not group:
        return 0.0, 0.0
    return _mec_cost(_group_totals(*zip(*group)), ap, mec, channel, bandwidth_scaled)


# demands within this relative distance of a cap count as at the cap
REL_TOL = 1e-9


def cap_side(demand, cap):
    """-1 where demand is below cap, 0 where it is at cap within REL_TOL,
    1 where it is above or NaN; for floats and arrays alike."""
    return (1 - 2 * (demand < cap)) * (1 - (abs(demand - cap) <= REL_TOL * cap))


def sum_left_to_right(values):
    """values added one at a time from 0; sum() compensates floats on Python 3.12+."""
    return functools.reduce(operator.add, values, 0)


def _demand_cps(cycles: float, size: int, deadline: float) -> float:
    return cycles / (size * deadline)


def group_demand_cps(tasks) -> float:
    """CPU demand of a nonempty group processed at its AP, cycles/s: total
    cycles over the pooled deadline budget len(tasks) * min(deadline),
    summed in one plain loop."""
    if not tasks:
        raise ValueError("the demand of an empty group is undefined")
    cycles = 0.0
    deadline = math.inf
    for task in tasks:
        cycles += task.size_bits * task.density_cpb     # task.cycles
        if task.deadline_s < deadline:
            deadline = task.deadline_s
    return _demand_cps(cycles, len(tasks), deadline)


def system_metrics(schedule, plan, scenario) -> Metrics:
    """Evaluate a schedule plus offload plan, reading each group's
    GroupTotals from schedule.totals.

    Per AP with a nonempty group the cost is (1-x)*local + x*y*MEC; groups
    in plan.failed_aps are dropped from both the latency max and the energy
    sum and surface only as lost capacity. Effective capacity counts the
    scheduled UDs whose group was processed within its deadline rule:
    locally feasible allocation for local groups, wall-clock completion
    within the tightest member deadline for MEC and fallback groups.
    """
    w = scenario.weights
    latency = 0.0
    energy = 0.0
    capacity = 0
    scheduled = 0
    bh_scaled = scenario.config.backhaul_bandwidth_scaling
    for ap_id, entries in schedule.ap_groups.items():
        if not entries:
            continue
        scheduled += len(entries)
        if ap_id in plan.failed_aps:
            continue
        ap = scenario.aps[ap_id]
        if ap_id not in plan.local.f_loc:
            raise InvalidAssignmentError(f"plan does not cover ap {ap_id}")
        totals = schedule.totals(ap_id)
        offload = plan.local.x.get(ap_id, False)
        if not offload:
            d, e = _local_cost(totals, plan.local.f_loc[ap_id], w)
            ok = cap_side(_demand_cps(totals.cycles, totals.size, totals.deadline_s),
                          ap.f_loc_max_cps) <= 0
        elif plan.admission.y.get(ap_id, False):
            mec = scenario.mecs[plan.admission.assignment[ap_id]]
            d, e = _mec_cost(totals, ap, mec, scenario.channel, bh_scaled)
            ok = d <= totals.deadline_s
        elif ap_id in plan.fallback_aps:
            # best-effort local at the cap; deadline misses count as failures
            d, e = _local_cost(totals, ap.f_loc_max_cps, w)
            ok = d <= totals.deadline_s
        else:
            raise InvalidAssignmentError(
                f"ap {ap_id} flagged for offload but neither admitted, fallback, nor failed")
        latency = max(latency, d)
        energy += e
        if ok:
            capacity += len(entries)
    cost = w.w_latency * latency + w.w_energy * energy
    return Metrics(latency, energy, cost, capacity, scheduled)
