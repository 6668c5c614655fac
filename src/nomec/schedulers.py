"""End-to-end scheduling schemes: joint, pruned, and the three baselines.

Every scheme produces a Schedule (who transmits where, at what rate) and an
OffloadPlan (per-AP processing disposition plus the evaluated metrics). All
five run one pipeline: select associations, allocate AP CPU, admit the
offload candidates to MEC servers, split the rejected groups into fallback
and failed, evaluate. The schemes differ only in the parts _PIPELINES
names.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import (_cached, _caps, _channel_terms, _full_cells, _gathered, _kept, _solve,
                    _weights, build_pruned, check_cell_budget, enumerate_full)
# kept bound here: perfbench/tracer.py wraps schedulers.build_full by name
from .graph import build_full  # noqa: F401
from .model import (GroupTotals, InvalidAssignmentError, Metrics, _group_totals,
                    backhaul_rates, system_metrics)
from .mwis import ORDERINGS, _scan, greedy_min_wis, random_maximal_is
from .offload import (AdmissionPlan, LocalAllocation, _first_layer_weight,
                      _second_layer_weights, admission_control, allocate_local)


@dataclass(frozen=True)
class Schedule:
    """Realized uplink schedule: the chosen associations plus per-UD and
    per-AP views. ap_groups maps ap_id to (ud_id, Task, rate) tuples."""
    associations: tuple
    ud_assignment: dict
    ap_groups: dict
    _totals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def totals(self, ap_id) -> GroupTotals:
        """The GroupTotals of ap_id's nonempty group, walked on first use."""
        if ap_id not in self._totals:
            _, tasks, rates = zip(*self.ap_groups[ap_id])
            self._totals[ap_id] = _group_totals(tasks, rates)
        return self._totals[ap_id]

    @classmethod
    def build(cls, assocs, scenario):
        ud_map = {}
        groups = {}
        devices = scenario.devices
        for a in assocs:
            for ud, power, rate in zip(a.uds, a.power.powers, a.power.rates):
                if ud in ud_map:
                    raise InvalidAssignmentError(f"ud {ud} scheduled twice")
                ud_map[ud] = (a.ap, a.rrb, power, rate)
                groups.setdefault(a.ap, []).append((ud, devices[ud].task, rate))
        groups = {m: tuple(sorted(entries)) for m, entries in groups.items()}
        return cls(tuple(assocs), ud_map, groups)


@dataclass(frozen=True)
class OffloadPlan:
    local: LocalAllocation
    admission: AdmissionPlan
    failed_aps: frozenset       # groups dropped outright
    fallback_aps: frozenset     # offload candidates processed best-effort locally
    metrics: Metrics = None
    extras: dict = field(default_factory=dict)


class _Options(NamedTuple):
    seed: int
    max_iters: int
    strict_cc2: bool
    ordering: str


def _offload_all(groups, caps):
    """Every group offloads, keeping the cap as its fallback frequency."""
    return LocalAllocation({m: caps[m] for m in groups}, {m: True for m in groups})


def _stage1(scenario, opt: _Options):
    """Alternate scheduling and local allocation until the offload flags and
    per-AP frequencies stop changing.

    Groups flagged for offloading are frozen and their UDs, AP and slots
    leave the next iteration's pool; under strict CC2 a slot is an RRB
    index, which a frozen cluster holds on every AP, and under the default
    rule the AP's own. The cached full cells are solved once, unweighed;
    the pool, private to the call, gathers their feasible rows (or is the
    solved graph itself when every row is feasible and searched) and keeps
    its frequency-free weight terms, so each new input weighs it again in
    five array operations, and the greedy searches the whole pool.
    When APs commit, the pool, its terms and its rows of the solved cells
    are regathered at the next new input to the vertices still in it. An
    iteration whose input repeats an earlier one's reuses its picks and
    allocation; cycle_period is how far back the first repeat lies, or 0.
    The associations are the frozen ones plus the last iteration's picks at
    uncommitted APs. The graph, built once, holds the feasible cells the
    last iteration's pool still covers, weighed at its frequencies, in
    place when that is every cell; the picks index it. When the pool holds
    exactly those cells, as under the modified ordering, the pool itself
    is the graph, weighed from the terms it already has.

    Under the original ordering the pool holds the singletons only: a pair
    is strictly heavier than both of its member singletons on its slot and
    conflicts with each, so the lightest-first greedy never takes it. The
    final graph keeps the pairs. The modified ordering ranks by sums over
    pair weights, so its pool keeps the pairs.
    """
    caps = _caps(scenario)
    f_loc = dict(caps)
    committed = []
    tasks = [d.task for d in scenario.devices]
    cells = _cached(scenario, ("full_cells", None), _full_cells)
    solved, feas = _solve(scenario, cells, opt.strict_cc2)
    # per UD, AP id and slot of solved, whether it is still in the pool; the
    # extra last UD entry stays set, so a singleton's u2 = -1 never removes it
    active = (np.ones(len(scenario.devices) + 1, dtype=bool),
              np.ones(len(scenario.aps), dtype=bool),
              np.ones(int(solved.slot.max(initial=-1)) + 1, dtype=bool))
    active_ud, active_ap, active_slot = active

    def in_pool(g, ud, ap, slot):
        return ud[g.u1] & ud[g.u2] & ap[g.ap_arr] & slot[g.slot]

    # the pool's rows of solved, its vertices and their frequency-free terms
    rows = np.flatnonzero(feas if opt.ordering == "modified" else feas & (solved.u2 < 0))
    pool = solved if rows.size == len(solved) else _gathered(solved, rows)
    terms = _channel_terms(scenario, pool)
    pooled = 0      # how many commits the pool has left out
    seen = {}       # per input, its iteration, picks, their APs and allocation
    converged, iterations, cycle_period = False, 0, 0
    for it in range(opt.max_iters):
        iterations = it + 1
        masks, weighed_at = active, dict(f_loc)
        key = (len(committed), *f_loc.values())     # only commits shrink the pool
        if key not in seen:
            if key[0] > pooled:
                at = np.flatnonzero(in_pool(pool, *masks))
                pool, rows, terms = _gathered(pool, at), rows[at], [t[at] for t in terms]
                pooled = key[0]
            pool.weights = _weights(scenario, terms, pool.ap_arr, f_loc)
            idx = np.array(greedy_min_wis(pool, opt.ordering).indices, dtype=np.int64)
            pick_aps = pool.ap_arr[idx].tolist()
            # each AP's tasks in pick order, which fixes the demand sums' last bits
            groups = {}
            for m, u1, u2 in zip(pick_aps, pool.u1[idx].tolist(), pool.u2[idx].tolist()):
                groups.setdefault(m, []).append(tasks[u1])
                if u2 >= 0:
                    groups[m].append(tasks[u2])
            seen[key] = (it, idx, pick_aps, allocate_local(groups, caps))
        first, idx, pick_aps, alloc = seen[key]
        cycle_period = cycle_period or it - first
        new_flags = {m for m, flagged in alloc.x.items() if flagged}
        f_new = {m: alloc.f_loc[m] for m in alloc.f_loc if not alloc.x[m]}
        if not new_flags and all(f_loc[m] == f_new[m] for m in f_new):
            converged = True
            break
        if new_flags:   # a repeated input never flags: flagging shrinks the pool
            masks = [a.copy() for a in active]
            at = [i for i, m in zip(idx.tolist(), pick_aps) if m in new_flags]
            for a in pool.vertices_at(at):
                committed.append(a)
                active_ud[list(a.uds)] = False
            active_ap[list(new_flags)] = False
            active_slot[pool.slot[at]] = False
        f_loc.update(f_new)
    committed_aps = frozenset(np.flatnonzero(~active_ap).tolist())
    keep = feas & in_pool(solved, *masks) if key[0] else feas   # key[0]: commits before
    if rows.size == np.count_nonzero(keep):     # the pool holds the final graph's rows
        graph, picks = pool, tuple(idx.tolist())
        graph.weights = _weights(scenario, terms, graph.ap_arr, weighed_at)
    else:
        graph = _kept(scenario, solved, keep, weighed_at)
        picks = tuple(np.flatnonzero(keep).searchsorted(rows[idx]).tolist())
    assocs = committed + graph.vertices_at([i for i, m in zip(picks, pick_aps)
                                            if m not in committed_aps])
    extras = {"vertices": int(np.count_nonzero(feas)), "iterations": iterations,
              "converged": converged, "cycle_period": cycle_period,
              "stage1_f_loc": dict(f_loc), "committed_aps": committed_aps}
    return assocs, graph, picks, extras


def _picked(graph, wis):
    return graph.vertices_at(wis.indices), graph, wis.indices, {}


def _stage1_original(scenario, opt: _Options):
    """Stage 1 with the plain weight ordering, whatever was asked for."""
    return _stage1(scenario, opt._replace(ordering="original"))


def _pruned_greedy(scenario, opt: _Options):
    """The greedy over build_pruned's graph, which is the final graph and
    which the picks index.

    Under the original ordering the greedy searches the graph's singletons
    alone. No pair can be picked: every pruned pair holds its slot's seed,
    whose singleton on the same slot conflicts with it and is strictly
    lighter, since the seed's rate in the pair is at most its rate alone
    and the partner adds positive terms. The lightest-first greedy so
    reaches that singleton first, and whether it takes it or a conflicting
    pick blocks it, the pair is blocked too. The modified ordering ranks
    by sums over the pairs' weights, so it searches the whole graph.
    """
    graph = build_pruned(scenario, strict_cc2=opt.strict_cc2)
    if opt.ordering == "modified":
        return _picked(graph, greedy_min_wis(graph, opt.ordering))
    rows = np.flatnonzero(graph.u2 < 0)
    seeds = _gathered(graph, rows)
    seeds.weights = graph.weights[rows]
    picks = rows[np.array(greedy_min_wis(seeds, "original").indices, dtype=np.int64)]
    return graph.vertices_at(picks), graph, tuple(picks.tolist()), {}


# all_offload's one RRB per AP caps each collected group at a single cluster
_ONE_RRB = (0,)


def _one_cluster_per_ap(scenario, opt: _Options):
    # pairs order before singletons so clusters fill up
    graph = enumerate_full(scenario, strict_cc2=opt.strict_cc2, rrbs=_ONE_RRB)
    single = graph.u2 < 0
    return _picked(graph, _scan(graph, (np.flatnonzero(~single), np.flatnonzero(single)),
                                graph.weights))


def _random_maximal(scenario, opt: _Options):
    graph = enumerate_full(scenario, strict_cc2=opt.strict_cc2)
    return _picked(graph, random_maximal_is(graph, opt.seed))


def _candidate_rates(scenario, candidates):
    """Per candidate AP id, its backhaul rates indexed by MEC id."""
    if not candidates:
        return {}
    return backhaul_rates([scenario.aps[m] for m in candidates], scenario.mecs,
                          scenario.channel, scenario.config.backhaul_bandwidth_scaling)


def _admit_weighted(scenario, schedule, candidates, seed):
    """First/second-layer weighted admission for the candidate AP ids."""
    rates = _candidate_rates(scenario, candidates)
    g = {}
    affinity = {}
    for m in candidates:
        totals = schedule.totals(m)
        g[m] = _first_layer_weight(totals, scenario.aps[m].f_loc_max_cps, scenario.weights)
        affinity[m] = _second_layer_weights(totals, rates[m])
    return admission_control(g, affinity)


def _admit_random(scenario, schedule, candidates, seed):
    """Seeded uniformly random admission onto distinct MECs, in a random
    candidate order. An AP draws among the MECs left whose backhaul rate
    for it is positive; with none left it stays unadmitted and draws
    nothing."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rates = _candidate_rates(scenario, candidates)
    remaining = list(range(len(scenario.mecs)))     # MEC ids
    y = {m: False for m in candidates}
    assignment = {}
    for idx in rng.permutation(len(candidates)):
        if not remaining:
            break
        m = candidates[idx]
        usable = [k for k in remaining if rates[m][k] > 0]
        if usable:
            k = usable[int(rng.integers(len(usable)))]
            remaining.remove(k)
            y[m] = True
            assignment[m] = k
    return AdmissionPlan(y, assignment)


def _admit_none(scenario, schedule, candidates, seed):
    return AdmissionPlan({}, {})


# Per scheme: select (scenario, _Options) -> (associations, final graph,
# picked indices, extras); admit (scenario, Schedule, sorted candidate ap
# ids, seed) -> AdmissionPlan; whether rejected offload candidates may run
# best-effort locally; and whether every group offloads instead of getting
# allocate_local. local is joint's stage 1 with offloading disabled, so
# overloaded groups fail; all_offload groups that are not admitted fail.
# allocate_local stays out of the table: run_scheme and _stage1 read it
# from this module when they call it, so it can be wrapped by name.
_PIPELINES = {
    #               select               admit            fallback  offload all
    "joint":       (_stage1,             _admit_weighted, True,     False),
    "pruning":     (_pruned_greedy,      _admit_weighted, True,     False),
    "local":       (_stage1_original,    _admit_none,     False,    False),
    "all_offload": (_one_cluster_per_ap, _admit_weighted, False,    True),
    "random":      (_random_maximal,     _admit_random,   True,     False),
}
SCHEMES = tuple(_PIPELINES)


def check_size(scenario, schemes):
    """Refuse, with check_cell_budget's ConfigError, a scenario on which
    the schemes would enumerate full candidate cells past the budget:
    joint, local and random enumerate those of every RRB, all_offload
    those of _ONE_RRB, pruning none."""
    if {"joint", "local", "random"} & set(schemes):
        check_cell_budget(scenario)
    elif "all_offload" in schemes:
        check_cell_budget(scenario, _ONE_RRB)


def run_scheme(scenario, scheme: str, seed: int = 0, max_iters: int = 5,
               strict_cc2: bool = False, mwis_ordering: str = "original",
               fallback_local: bool = True):
    """Run one scheme on one channel realization; returns (Schedule, OffloadPlan).

    seed, an int >= 0, drives only the random scheme and max_iters only
    the stage-1 alternation of joint and local; mwis_ordering applies to
    joint and pruning. fallback_local lets rejected offload candidates of
    joint, pruning and random run best-effort locally instead of failing;
    it and strict_cc2 must be bools.
    """
    if scheme not in _PIPELINES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if mwis_ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {mwis_ordering!r}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise ValueError(f"max_iters must be an int >= 1, got {max_iters!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    for name, flag in (("strict_cc2", strict_cc2), ("fallback_local", fallback_local)):
        if not isinstance(flag, (bool, np.bool_)):
            raise ValueError(f"{name} must be a bool, got {flag!r}")
    select, admit, may_fall_back, offload_all = _PIPELINES[scheme]
    assocs, graph, picks, extras = select(
        scenario, _Options(seed, max_iters, strict_cc2, mwis_ordering))
    schedule = Schedule.build(assocs, scenario)
    groups = {m: [t for _, t, _ in entries] for m, entries in schedule.ap_groups.items()}
    alloc = (_offload_all if offload_all else allocate_local)(groups, _caps(scenario))
    candidates = sorted(m for m, flagged in alloc.x.items() if flagged)
    admission = admit(scenario, schedule, candidates, seed)
    rejected = frozenset(m for m in candidates if not admission.y.get(m, False))
    fallback = rejected if may_fall_back and fallback_local else frozenset()
    extras = {"vertices": len(graph), **extras, "final_graph": graph,
              "final_is_indices": picks}
    failed = rejected - fallback
    metrics = system_metrics(schedule, OffloadPlan(alloc, admission, failed, fallback),
                             scenario)
    return schedule, OffloadPlan(alloc, admission, failed, fallback, metrics, extras)
