"""Closed-form local CPU allocation and AP-to-MEC admission control."""

from dataclasses import dataclass

from .model import _group_totals, _local_cost, cap_side, group_demand_cps


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
    cap gets f = D with no offload; D at the cap (cap_side 0) gets the
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
        side = cap_side(demand, cap)
        f_out[ap_id] = demand if side < 0 else cap
        x_out[ap_id] = side > 0
    return LocalAllocation(f_out, x_out)


def _first_layer_weight(totals, f_loc: float, weights) -> float:
    d, e = _local_cost(totals, f_loc, weights)
    return d + e


def first_layer_weight(group, f_loc: float, weights) -> float:
    """Offload urgency of a group: its local delay plus local energy, 0.0
    for an empty group.

    group is a sequence of (Task, upload_rate_bps).
    """
    return _first_layer_weight(_group_totals(*zip(*group)), f_loc, weights) if group else 0.0


def _second_layer_weights(totals, rates) -> list:
    if totals.bits <= 0:
        raise ValueError("second-layer weight undefined for an empty group")
    mean_density = totals.density_cpb / totals.size
    return [rate * mean_density / totals.bits for rate in rates]


def second_layer_weights(tasks, rates) -> list:
    """The affinities of one AP group for backhaul links of the given
    rates, the group summed once, left to right."""
    return _second_layer_weights(_group_totals(tasks), rates)


def admission_control(g_by_ap: dict, affinity: dict) -> AdmissionPlan:
    """Admit offload candidates to distinct MECs.

    affinity[ap] is the AP's row of second-layer weights indexed by MEC id.
    Candidates are served in descending first-layer weight (ties by AP id);
    each admitted AP takes its highest-affinity MEC not yet taken (ties by
    MEC id). A MEC the AP's affinity for is not positive, such as one
    behind a zero-rate backhaul link, is never its pick; an AP with no
    positive-affinity MEC left stays unadmitted and the next candidate is
    served. The assignment is injective; everyone else stays unadmitted.
    """
    y = {ap: False for ap in g_by_ap}
    assignment = {}
    for ap in sorted(g_by_ap, key=lambda ap: (-g_by_ap[ap], ap)):
        row = affinity[ap]
        usable = [k for k in range(len(row)) if row[k] > 0 and k not in assignment.values()]
        if usable:
            y[ap] = True
            assignment[ap] = max(usable, key=lambda k: (row[k], -k))
    return AdmissionPlan(y, assignment)
