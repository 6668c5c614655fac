"""Closed-form local CPU allocation and AP-to-MEC admission control."""

from dataclasses import dataclass

from .model import REL_TOL, backhaul_rate, group_demand_cps, local_cost


@dataclass(frozen=True)
class LocalAllocation:
    f_loc: dict     # ap_id -> allocated cycles/s
    x: dict         # ap_id -> True when the group must offload


@dataclass(frozen=True)
class AdmissionPlan:
    y: dict             # ap_id -> admitted flag
    assignment: dict    # ap_id -> mec_id, injective


def allocate_local(groups: dict, caps: dict) -> LocalAllocation:
    """Three-case closed form per AP group against that AP's cap in caps.

    Demand D = total cycles / (group size * tightest deadline). D below the
    cap gets f = D with no offload; D at the cap (within REL_TOL) gets the
    cap; D above the cap flags the group for offloading (f_loc then holds
    the cap as the best-effort fallback frequency). Empty groups are
    skipped with x False and f 0.
    """
    f_out = {}
    x_out = {}
    for ap_id, tasks in groups.items():
        cap = caps[ap_id]
        if cap <= 0:
            raise ValueError(f"the cap of ap {ap_id} must be positive")
        if not tasks:
            f_out[ap_id] = 0.0
            x_out[ap_id] = False
            continue
        demand = group_demand_cps(tasks)
        if abs(demand - cap) <= REL_TOL * cap:
            f_out[ap_id] = cap
            x_out[ap_id] = False
        elif demand < cap:
            f_out[ap_id] = demand
            x_out[ap_id] = False
        else:
            f_out[ap_id] = cap
            x_out[ap_id] = True
    return LocalAllocation(f_out, x_out)


def first_layer_weight(group, f_loc: float, weights) -> float:
    """Offload urgency of a group: its local delay plus local energy.

    group is a sequence of (Task, upload_rate_bps).
    """
    if not group:
        return 0.0
    d, e = local_cost(group, f_loc, weights)
    return d + e


def second_layer_weight(tasks, ap, mec, channel, bandwidth_scaled: bool = True) -> float:
    """Affinity of an AP group for a MEC: backhaul rate times the mean
    density over the group's total bits."""
    return second_layer_weights(tasks, [backhaul_rate(ap, mec, channel, bandwidth_scaled)])[0]


def second_layer_weights(tasks, rates) -> list:
    """The affinities of one AP group for backhaul links of the given
    rates, the group summed once."""
    total_bits = sum(t.size_bits for t in tasks)
    if total_bits <= 0:
        raise ValueError("second-layer weight undefined for an empty group")
    mean_density = sum(t.density_cpb for t in tasks) / len(tasks)
    return [rate * mean_density / total_bits for rate in rates]


def admission_control(g_by_ap: dict, affinity: dict, mec_ids) -> AdmissionPlan:
    """Admit up to len(mec_ids) offload candidates.

    Candidates are served in descending first-layer weight (ties by AP id);
    each admitted AP takes its highest-affinity surviving MEC (ties by MEC
    id). A MEC the AP's affinity for is not positive, such as one behind a
    zero-rate backhaul link, is never its pick; an AP with no
    positive-affinity MEC left stays unadmitted and the next candidate is
    served. The assignment is injective; everyone else stays unadmitted.
    """
    order = sorted(g_by_ap, key=lambda ap: (-g_by_ap[ap], ap))
    remaining = list(mec_ids)
    y = {ap: False for ap in g_by_ap}
    assignment = {}
    for ap in order:
        if not remaining:
            break
        usable = [k for k in remaining if affinity[(ap, k)] > 0]
        if usable:
            best = max(usable, key=lambda k: (affinity[(ap, k)], -k))
            remaining.remove(best)
            y[ap] = True
            assignment[ap] = best
    return AdmissionPlan(y, assignment)
