"""Core system model: entities, the backhaul rate, and per-group cost
formulas. Uplink SIC rates come from the power solve in power.py.

Units are SI throughout: bits, cycles, seconds, watts, Hz. Channel gains are
linear power gains (dimensionless), noise is total watts over one RRB.
"""

import math
from dataclasses import dataclass

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
    hop, an (M, K) array. noise_w is the receiver noise over one RRB of
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
            object.__setattr__(self, name, gains)


@dataclass(frozen=True)
class Metrics:
    latency_s: float
    energy_j: float
    cost: float
    effective_capacity: int
    scheduled_uds: int


def _link_gain(gains: np.ndarray, key: tuple, what: str) -> float:
    """gains[key], checked against the array bounds: numpy would wrap a
    negative index onto another link."""
    if not all(0 <= i < n for i, n in zip(key, gains.shape)):
        raise InvalidTopologyError(f"no {what}")
    return gains[key]


def backhaul_rate(ap: AccessPoint, mec: MecServer, channel: ChannelState,
                  bandwidth_scaled: bool = True) -> float:
    """AP to MEC transfer rate.

    bandwidth_scaled=True returns bits/s (spectral efficiency times the RRB
    bandwidth); False returns the bare log2 term.
    """
    gain = _link_gain(channel.gain_ap_mec, (ap.id, mec.id),
                      f"backhaul gain for ap {ap.id} -> mec {mec.id}")
    return _link_rates(ap, [gain], channel, bandwidth_scaled)[0]


def _link_rates(ap: AccessPoint, gains, channel: ChannelState, bandwidth_scaled: bool) -> list:
    """backhaul_rate of ap's links of the given gains."""
    se = [math.log2(1.0 + ap.q_tx_w * gain / channel.noise_w) for gain in gains]
    return [channel.rrb_bandwidth_hz * s for s in se] if bandwidth_scaled else se


def backhaul_rates(aps, mecs, channel: ChannelState, bandwidth_scaled: bool = True) -> dict:
    """Per AP id in aps, the backhaul_rate of its link to each MEC in mecs,
    in that order, with the gains read in one pass."""
    ap_ids, mec_ids = [ap.id for ap in aps], [mec.id for mec in mecs]
    if ap_ids and mec_ids:      # these two links bound every id
        for key in ((min(ap_ids), min(mec_ids)), (max(ap_ids), max(mec_ids))):
            _link_gain(channel.gain_ap_mec, key, f"backhaul gain for ap {key[0]} -> mec {key[1]}")
    rows = channel.gain_ap_mec[:, mec_ids].tolist()
    return {ap.id: _link_rates(ap, rows[ap.id], channel, bandwidth_scaled) for ap in aps}


def _group_totals(group):
    """(slowest upload time, total bits, total cycles) of a collected group
    of (Task, upload_rate_bps)."""
    upload = 0.0
    bits = 0.0
    cycles = 0.0
    for task, rate in group:
        if rate <= 0:
            raise InfeasibleUploadError("upload rate must be positive")
        upload = max(upload, task.size_bits / rate)
        bits += task.size_bits
        cycles += task.cycles
    return upload, bits, cycles


def local_cost(group, f_loc: float, weights: CostWeights):
    """(delay_s, energy_j) for processing a collected group at the AP.

    group is a sequence of (Task, upload_rate_bps). Delay is the slowest
    upload plus the serial compute time of all cycles at f_loc; energy is
    the CPU energy alpha * cycles * f_loc^2.
    """
    if not group:
        return 0.0, 0.0
    if f_loc <= 0:
        raise ValueError("f_loc must be positive for a nonempty group")
    upload, _, cycles = _group_totals(group)
    delay = upload + cycles / f_loc
    energy = weights.alpha_cpu * cycles * f_loc ** 2
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
    rate_bh = backhaul_rate(ap, mec, channel, bandwidth_scaled)
    if rate_bh <= 0:
        raise InvalidTopologyError(f"backhaul ap {ap.id} -> mec {mec.id} has zero rate")
    upload, bits, cycles = _group_totals(group)
    t_fwd = bits / rate_bh
    t_cpu = cycles / mec.f_mec_cps
    delay = upload + t_fwd + t_cpu
    energy = t_fwd * ap.q_tx_w + t_cpu * ap.q_idle_w
    return delay, energy


# demands within this relative distance of a cap count as at the cap
REL_TOL = 1e-9


def group_demand_cps(tasks) -> float:
    """CPU demand of a group processed at its AP, cycles/s: total cycles
    over the pooled deadline budget len(tasks) * min(deadline)."""
    cycles = sum(t.cycles for t in tasks)
    deadline = min(t.deadline_s for t in tasks)
    return cycles / (len(tasks) * deadline)


def system_metrics(schedule, plan, scenario) -> Metrics:
    """Evaluate a schedule plus offload plan.

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
    mec_by_id = {m.id: m for m in scenario.mecs}
    ap_by_id = {a.id: a for a in scenario.aps}
    for ap_id, entries in schedule.ap_groups.items():
        if not entries:
            continue
        scheduled += len(entries)
        if ap_id in plan.failed_aps:
            continue
        ap = ap_by_id[ap_id]
        group = [(task, rate) for _, task, rate in entries]
        tasks = [task for _, task, _ in entries]
        deadline = min(t.deadline_s for t in tasks)
        if ap_id not in plan.local.f_loc:
            raise InvalidAssignmentError(f"plan does not cover ap {ap_id}")
        offload = plan.local.x.get(ap_id, False)
        if not offload:
            d, e = local_cost(group, plan.local.f_loc[ap_id], w)
            demand = group_demand_cps(tasks)
            ok = demand <= ap.f_loc_max_cps * (1.0 + REL_TOL)
        elif plan.admission.y.get(ap_id, False):
            mec = mec_by_id[plan.admission.assignment[ap_id]]
            d, e = mec_cost(group, ap, mec, scenario.channel, w, bh_scaled)
            ok = d <= deadline
        elif ap_id in plan.fallback_aps:
            # best-effort local at the cap; deadline misses count as failures
            d, e = local_cost(group, ap.f_loc_max_cps, w)
            ok = d <= deadline
        else:
            raise InvalidAssignmentError(
                f"ap {ap_id} flagged for offload but neither admitted, fallback, nor failed")
        latency = max(latency, d)
        energy += e
        if ok:
            capacity += len(entries)
    cost = w.w_latency * latency + w.w_energy * energy
    return Metrics(latency, energy, cost, capacity, scheduled)
