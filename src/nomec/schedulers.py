"""End-to-end scheduling schemes: joint, pruned, and the three baselines.

Every scheme produces a Schedule (who transmits where, at what rate) and an
OffloadPlan (per-AP processing disposition plus the evaluated metrics).
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .graph import build_pruned, enumerate_full
# kept bound here: perfbench/tracer.py wraps schedulers.build_full by name
from .graph import build_full  # noqa: F401
from .model import InvalidAssignmentError, Metrics, system_metrics
from .mwis import IndependentSet, _greedy_by_order, greedy_min_wis, random_maximal_is
from .offload import (AdmissionPlan, LocalAllocation, admission_control,
                      allocate_local, first_layer_weight, second_layer_weight)

SCHEMES = ("joint", "pruning", "local", "all_offload", "random")


@dataclass(frozen=True)
class Schedule:
    """Realized uplink schedule: the chosen associations plus per-UD and
    per-AP views. ap_groups maps ap_id to (ud_id, Task, rate) tuples."""
    associations: tuple
    ud_assignment: dict
    ap_groups: dict

    @classmethod
    def from_associations(cls, assocs, scenario):
        ud_map = {}
        groups = {}
        for a in assocs:
            for i, ud in enumerate(a.uds):
                if ud in ud_map:
                    raise InvalidAssignmentError(f"ud {ud} scheduled twice")
                rate = a.power.rates[i]
                ud_map[ud] = (a.ap, a.rrb, a.power.powers[i], rate)
                groups.setdefault(a.ap, []).append((ud, scenario.device_by_id(ud).task, rate))
        groups = {m: tuple(sorted(entries)) for m, entries in groups.items()}
        return cls(tuple(assocs), ud_map, groups)

    @property
    def scheduled_uds(self):
        return len(self.ud_assignment)


@dataclass(frozen=True)
class OffloadPlan:
    local: LocalAllocation
    admission: AdmissionPlan
    failed_aps: frozenset       # groups dropped outright
    fallback_aps: frozenset     # offload candidates processed best-effort locally
    metrics: Metrics = None
    extras: dict = field(default_factory=dict)


def _allocate(scenario, groups):
    """allocate_local per AP against that AP's frequency cap."""
    ap_by_id = {a.id: a for a in scenario.aps}
    f_out, x_out = {}, {}
    for m, tasks in groups.items():
        sub = allocate_local({m: tasks}, ap_by_id[m].f_loc_max_cps)
        f_out.update(sub.f_loc)
        x_out.update(sub.x)
    return LocalAllocation(f_out, x_out)


def _tasks_by_ap(assocs, scenario):
    groups = {}
    for a in assocs:
        groups.setdefault(a.ap, []).extend(scenario.device_by_id(u).task for u in a.uds)
    return groups


def _admit(scenario, schedule, candidates):
    """First/second-layer weighted admission for the candidate AP ids."""
    if not candidates:
        return AdmissionPlan({}, {})
    ap_by_id = {a.id: a for a in scenario.aps}
    bh = scenario.backhaul_bandwidth_scaling
    g = {}
    affinity = {}
    for m in candidates:
        entries = schedule.ap_groups[m]
        group = [(task, rate) for _, task, rate in entries]
        tasks = [task for _, task, _ in entries]
        g[m] = first_layer_weight(group, ap_by_id[m].f_loc_max_cps, scenario.weights)
        for mec in scenario.mecs:
            affinity[(m, mec.id)] = second_layer_weight(tasks, ap_by_id[m], mec,
                                                        scenario.channel, bh)
    return admission_control(g, affinity, [mec.id for mec in scenario.mecs])


def _finish(scenario, schedule, alloc, admission, failed, fallback, extras):
    plan = OffloadPlan(local=alloc, admission=admission, failed_aps=frozenset(failed),
                       fallback_aps=frozenset(fallback), metrics=None, extras=extras)
    metrics = system_metrics(schedule, plan, scenario)
    return dataclasses.replace(plan, metrics=metrics)


def _stage1_iterate(scenario, max_iters, strict_cc2, ordering):
    """Alternate scheduling and local allocation until the offload flags and
    per-AP frequencies stop changing.

    Groups flagged for offloading are frozen and their UDs and AP leave the
    next iteration's pool. Returns (final associations, committed ap ids,
    last graph, last independent set, iterations, converged).
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    f_loc = {ap.id: ap.f_loc_max_cps for ap in scenario.aps}
    committed = []
    committed_aps = set()
    active_uds = {d.id for d in scenario.devices}
    active_aps = {ap.id for ap in scenario.aps}
    converged = False
    graph = None
    wis = IndependentSet((), (), 0.0)
    first_vertices = 0
    iterations = 0
    for it in range(max_iters):
        iterations = it + 1
        graph = enumerate_full(scenario, f_loc=f_loc, strict_cc2=strict_cc2,
                               uds=active_uds, aps=active_aps)
        if it == 0:
            first_vertices = len(graph)
        wis = greedy_min_wis(graph, ordering)
        groups = _tasks_by_ap(wis.vertices, scenario)
        alloc = _allocate(scenario, groups)
        new_flags = {m for m, flagged in alloc.x.items() if flagged}
        f_new = {m: alloc.f_loc[m] for m in alloc.f_loc if not alloc.x[m]}
        if not new_flags and all(f_loc[m] == f_new[m] for m in f_new):
            converged = True
            break
        moved_uds = set()
        for a in wis.vertices:
            if a.ap in new_flags:
                committed.append(a)
                moved_uds.update(a.uds)
        committed_aps |= new_flags
        active_uds -= moved_uds
        active_aps -= new_flags
        f_loc.update(f_new)
    final_assocs = committed + [a for a in wis.vertices if a.ap not in committed_aps]
    return (tuple(final_assocs), frozenset(committed_aps), graph, wis,
            iterations, converged, first_vertices, dict(f_loc))


def run_joint(scenario, max_iters: int = 5, strict_cc2: bool = False,
              mwis_ordering: str = "original", fallback_local: bool = True):
    """Iterative joint scheme: full conflict graph, greedy lightest-first
    scheduling, closed-form local allocation, then admission control."""
    (assocs, committed_aps, graph, wis, iterations, converged,
     first_vertices, f_loc) = _stage1_iterate(scenario, max_iters, strict_cc2,
                                              mwis_ordering)
    schedule = Schedule.from_associations(assocs, scenario)
    alloc = _allocate(scenario, {m: [t for _, t, _ in e] for m, e in schedule.ap_groups.items()})
    candidates = sorted(m for m, flagged in alloc.x.items() if flagged)
    admission = _admit(scenario, schedule, candidates)
    rejected = [m for m in candidates if not admission.y.get(m, False)]
    fallback = rejected if fallback_local else []
    failed = [] if fallback_local else rejected
    extras = {"vertices": first_vertices, "iterations": iterations,
              "converged": converged, "final_graph": graph,
              "final_is_indices": wis.indices, "stage1_f_loc": f_loc,
              "committed_aps": committed_aps}
    return schedule, _finish(scenario, schedule, alloc, admission, failed, fallback, extras)


def run_pruning(scenario, strict_cc2: bool = False,
                mwis_ordering: str = "original", fallback_local: bool = True):
    """Single-pass scheme over the reduced candidate graph."""
    graph = build_pruned(scenario, strict_cc2=strict_cc2)
    wis = greedy_min_wis(graph, mwis_ordering)
    schedule = Schedule.from_associations(wis.vertices, scenario)
    alloc = _allocate(scenario, {m: [t for _, t, _ in e] for m, e in schedule.ap_groups.items()})
    candidates = sorted(m for m, flagged in alloc.x.items() if flagged)
    admission = _admit(scenario, schedule, candidates)
    rejected = [m for m in candidates if not admission.y.get(m, False)]
    fallback = rejected if fallback_local else []
    failed = [] if fallback_local else rejected
    extras = {"vertices": len(graph), "final_graph": graph,
              "final_is_indices": wis.indices}
    return schedule, _finish(scenario, schedule, alloc, admission, failed, fallback, extras)


def run_baseline(scenario, kind: str, seed: int = 0, max_iters: int = 5,
                 strict_cc2: bool = False, fallback_local: bool = True):
    """Reference schemes.

    "local": scheduling as the joint scheme with offloading disabled;
    groups whose demand exceeds the cap fail outright. "all_offload": one
    cluster per AP (pairs preferred), everything offloads, at most one AP
    per MEC is admitted and the rest fail. "random": seeded random maximal
    independent set plus uniformly random admission.
    """
    if kind == "local":
        (assocs, committed_aps, graph, wis, iterations, converged,
         first_vertices, _) = _stage1_iterate(scenario, max_iters, strict_cc2, "original")
        schedule = Schedule.from_associations(assocs, scenario)
        alloc = _allocate(scenario, {m: [t for _, t, _ in e] for m, e in schedule.ap_groups.items()})
        failed = sorted(m for m, flagged in alloc.x.items() if flagged)
        extras = {"vertices": first_vertices, "iterations": iterations,
                  "converged": converged, "final_graph": graph,
                  "final_is_indices": wis.indices}
        return schedule, _finish(scenario, schedule, alloc, AdmissionPlan({}, {}),
                                 failed, [], extras)

    if kind == "all_offload":
        # one RRB per AP caps each collected group at a single cluster;
        # pairs order before singletons so clusters fill up
        graph = enumerate_full(scenario, f_loc=None, strict_cc2=strict_cc2, rrbs=[0])
        singleton = (graph.u2 < 0).astype(np.int8)
        order = np.lexsort((graph.u2, graph.u1, graph.rrb_arr, graph.ap_arr,
                            graph.weights, singleton))
        wis = _greedy_by_order(graph, order)
        schedule = Schedule.from_associations(wis.vertices, scenario)
        ap_by_id = {a.id: a for a in scenario.aps}
        alloc = LocalAllocation({m: ap_by_id[m].f_loc_max_cps for m in schedule.ap_groups},
                                {m: True for m in schedule.ap_groups})
        candidates = sorted(schedule.ap_groups)
        admission = _admit(scenario, schedule, candidates)
        failed = [m for m in candidates if not admission.y.get(m, False)]
        extras = {"vertices": len(graph), "final_graph": graph,
                  "final_is_indices": wis.indices}
        return schedule, _finish(scenario, schedule, alloc, admission, failed, [], extras)

    if kind == "random":
        graph = enumerate_full(scenario, f_loc=None, strict_cc2=strict_cc2)
        wis = random_maximal_is(graph, seed)
        schedule = Schedule.from_associations(wis.vertices, scenario)
        alloc = _allocate(scenario, {m: [t for _, t, _ in e] for m, e in schedule.ap_groups.items()})
        candidates = sorted(m for m, flagged in alloc.x.items() if flagged)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        mec_ids = [mec.id for mec in scenario.mecs]
        n_admit = min(len(mec_ids), len(candidates))
        order = list(rng.permutation(len(candidates))[:n_admit])
        remaining = list(mec_ids)
        y = {m: False for m in candidates}
        assignment = {}
        for idx in order:
            m = candidates[idx]
            pick = int(rng.integers(len(remaining)))
            y[m] = True
            assignment[m] = remaining.pop(pick)
        admission = AdmissionPlan(y, assignment)
        rejected = [m for m in candidates if not y.get(m, False)]
        fallback = rejected if fallback_local else []
        failed = [] if fallback_local else rejected
        extras = {"vertices": len(graph), "final_graph": graph,
                  "final_is_indices": wis.indices}
        return schedule, _finish(scenario, schedule, alloc, admission, failed, fallback, extras)

    raise ValueError(f"unknown baseline {kind!r}")


def run_scheme(scenario, scheme: str, seed: int = 0, **options):
    """Dispatch by scheme name; options mirror the individual runners."""
    if scheme == "joint":
        return run_joint(scenario, **options)
    if scheme == "pruning":
        options.pop("max_iters", None)
        return run_pruning(scenario, **options)
    if scheme in ("local", "all_offload", "random"):
        if scheme != "random":
            seed = 0
        opts = dict(options)
        opts.pop("mwis_ordering", None)
        return run_baseline(scenario, scheme, seed=seed, **opts)
    raise ValueError(f"unknown scheme {scheme!r}")
