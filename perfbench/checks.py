"""Correctness checks run on every scheme output the benchmark times.

Each check recomputes what it verifies from the scenario's raw data (device
and AP positions, channel gains, task sizes) with formulas that share no code
with the package; the SIC rate chain and the metric evaluation come from
``tests/oracles.py``, the suite's independent re-implementation. A failed
check raises ``CheckError`` naming what broke.
"""

import math

import numpy as np

import oracles

REL_TOL = 1e-9


class CheckError(AssertionError):
    """A scheme output that violates a model invariant."""


def _close(a, b, rel=REL_TOL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_schedule(schedule, scenario, strict_cc2):
    """No UD scheduled twice; one cluster of at most two UDs per slot; every
    scheduled UD inside its AP's coverage radius; the per-UD and per-AP views
    agree with the associations."""
    aps = {a.id: a for a in scenario.aps}
    seen_uds = {}
    seen_slots = set()
    for a in schedule.associations:
        if not 1 <= len(a.uds) <= 2:
            raise CheckError(f"cluster {a.uds} at ap {a.ap} rrb {a.rrb} holds {len(a.uds)} UDs")
        ap = aps[a.ap]
        if not 0 <= a.rrb < ap.num_rrbs:
            raise CheckError(f"rrb {a.rrb} out of range at ap {a.ap}")
        slot = a.rrb if strict_cc2 else (a.ap, a.rrb)
        if slot in seen_slots:
            raise CheckError(f"slot {slot} holds more than one cluster")
        seen_slots.add(slot)
        for i, ud in enumerate(a.uds):
            if ud in seen_uds:
                raise CheckError(f"ud {ud} scheduled twice")
            seen_uds[ud] = (a.ap, a.rrb, a.power.rates[i])
            dev = scenario.devices[ud]
            if math.dist(dev.position, ap.position) > ap.coverage_radius_m:
                raise CheckError(f"ud {ud} scheduled at ap {a.ap}, which does not cover it")
    views = {ud: (ap, rrb, rate) for ud, (ap, rrb, _, rate) in schedule.ud_assignment.items()}
    groups = {ud: (ap, rate) for ap, entries in schedule.ap_groups.items()
              for ud, _, rate in entries}
    if views != seen_uds or groups != {ud: (ap, rate) for ud, (ap, _, rate) in seen_uds.items()}:
        raise CheckError("ud_assignment or ap_groups disagree with the associations")


def check_power(schedule, scenario):
    """Powers in [0, p_max]; each UD's SIC rate, recomputed from the channel
    gains, matches the schedule and meets the rate floor."""
    chan = scenario.channel
    floor = scenario.weights.rate_threshold_bps * (1.0 - REL_TOL)
    for a in schedule.associations:
        members = list(zip(a.uds, a.power.powers))
        gains = {ud: chan.gain_ud_rrb[(ud, a.ap, a.rrb)] for ud in a.uds}
        for i, (ud, p) in enumerate(members):
            if not 0.0 <= p <= scenario.devices[ud].p_max_w:
                raise CheckError(f"ud {ud} transmits {p!r} W, outside [0, p_max]")
            rate = oracles.shannon_rate(oracles.sic_sinr(members, gains, ud, chan.noise_w),
                                        chan.rrb_bandwidth_hz)
            if not _close(rate, a.power.rates[i]):
                raise CheckError(f"ud {ud} rate {a.power.rates[i]!r} != recomputed {rate!r}")
            if rate < floor:
                raise CheckError(f"ud {ud} rate {rate!r} below the floor")


def check_maximal(schedule, plan, strict_cc2):
    """The picked set of extras["final_graph"] is independent and maximal,
    judged from the vertex UD and slot arrays, and every pick is scheduled."""
    graph = plan.extras["final_graph"]
    picks = np.asarray(plan.extras["final_is_indices"], dtype=np.int64)
    if graph is None or len(graph) == 0:
        if picks.size:
            raise CheckError("picks without a graph")
        return
    u1, u2 = graph.u1, graph.u2
    slot = graph.rrb_arr if strict_cc2 else graph.ap_arr * (int(graph.rrb_arr.max()) + 1) + graph.rrb_arr
    pick_uds = np.concatenate([u1[picks], u2[picks][u2[picks] >= 0]])
    if np.unique(pick_uds).size != pick_uds.size or np.unique(slot[picks]).size != picks.size:
        raise CheckError("picked vertices share a UD or a slot")
    used_ud = np.zeros(int(max(u1.max(), u2.max())) + 1, dtype=bool)
    used_ud[pick_uds] = True
    blocked = used_ud[u1] | ((u2 >= 0) & used_ud[np.maximum(u2, 0)]) | np.isin(slot, slot[picks])
    free = np.flatnonzero(~blocked)
    if free.size:
        raise CheckError(f"vertex {int(free[0])} could still join the picked set")
    scheduled = {(a.uds, a.ap, a.rrb) for a in schedule.associations}
    for i in picks:
        key = ((int(u1[i]),) if u2[i] < 0 else (int(u1[i]), int(u2[i])),
               int(graph.ap_arr[i]), int(graph.rrb_arr[i]))
        if key not in scheduled:
            raise CheckError(f"pick {key} is missing from the schedule")


def check_admission(plan, scenario):
    """Admitted groups are offload candidates, at most n_mecs of them, each
    on its own MEC."""
    admitted = sorted(ap for ap, y in plan.admission.y.items() if y)
    assignment = plan.admission.assignment
    if sorted(assignment) != admitted:
        raise CheckError("assignment keys differ from the admitted APs")
    if len(set(assignment.values())) != len(assignment):
        raise CheckError("two APs share one MEC")
    if len(admitted) > len(scenario.mecs):
        raise CheckError(f"{len(admitted)} groups admitted to {len(scenario.mecs)} MECs")
    mec_ids = {m.id for m in scenario.mecs}
    for ap in admitted:
        if assignment[ap] not in mec_ids or not plan.local.x.get(ap, False):
            raise CheckError(f"ap {ap} admitted without being an offload candidate")


def check_metrics(schedule, plan, scenario):
    """Metrics agree with an independent recomputation; cost is the weighted
    sum of latency and energy; every value is finite."""
    m = plan.metrics
    values = (m.latency_s, m.energy_j, m.cost)
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"non-finite metric in {m}")
    lat, en, cost, cap, sched = oracles.recompute_metrics(schedule, plan, scenario)
    w = scenario.weights
    for name, got, want in (("latency", m.latency_s, lat), ("energy", m.energy_j, en),
                            ("cost", m.cost, cost),
                            ("weighted cost", m.cost, w.w_latency * m.latency_s + w.w_energy * m.energy_j)):
        if not _close(got, want):
            raise CheckError(f"{name} {got!r} != recomputed {want!r}")
    if (m.effective_capacity, m.scheduled_uds) != (cap, sched):
        raise CheckError(f"capacity/scheduled {m.effective_capacity}/{m.scheduled_uds} "
                         f"!= recomputed {cap}/{sched}")


def check_capacity_bound(scheme, plan, scenario):
    """all_offload serves one cluster per admitted AP: at most 2 * n_mecs UDs."""
    if scheme == "all_offload" and plan.metrics.effective_capacity > 2 * len(scenario.mecs):
        raise CheckError(f"all_offload capacity {plan.metrics.effective_capacity} "
                         f"above 2 * n_mecs")


def check_output(scheme, schedule, plan, scenario, strict_cc2):
    """Every check that applies to one run_scheme result."""
    check_schedule(schedule, scenario, strict_cc2)
    check_power(schedule, scenario)
    check_maximal(schedule, plan, strict_cc2)
    check_admission(plan, scenario)
    check_metrics(schedule, plan, scenario)
    check_capacity_bound(scheme, plan, scenario)


def fingerprint(schedule, plan):
    """Everything a scheme decided, for exact comparison between runs."""
    m = plan.metrics
    return (tuple((a.uds, a.ap, a.rrb, a.power.powers, a.power.rates)
                  for a in schedule.associations),
            sorted(plan.local.f_loc.items()), sorted(plan.local.x.items()),
            sorted(plan.admission.y.items()), sorted(plan.admission.assignment.items()),
            sorted(plan.failed_aps), sorted(plan.fallback_aps),
            (m.latency_s, m.energy_j, m.cost, m.effective_capacity, m.scheduled_uds))
