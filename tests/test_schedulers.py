"""End-to-end scheme runners and schedule invariants."""

import dataclasses

import numpy as np
import pytest

from nomec import (SCHEMES, ClusterPowerSolution, ConflictGraph,
                   NomaAssociation, Schedule, ScenarioConfig, allocate_local,
                   enumerate_full, generate, modified_ranks, run_scheme)
from nomec import graph as graph_module
from nomec.graph import reweighed
from nomec import schedulers
from nomec.model import InvalidAssignmentError
from oracles import (conflicts, graph_of, modified_ranks_by_unique, pairs_first_order,
                     picks_in_order)

BASE = dict(n_uds=10, n_aps=4, n_mecs=2, rrbs_per_ap=2)


def small_scenario(seed):
    return generate(ScenarioConfig(seed=seed, **BASE))


def sol(powers, rates):
    return ClusterPowerSolution(tuple(powers), tuple(rates), 1.0, True)


def test_schedule_views():
    scn = small_scenario(1)
    assocs = [
        NomaAssociation((0, 1), 0, 0, sol((0.2, 0.1), (2e6, 1e6)), 1.0),
        NomaAssociation((2,), 1, 1, sol((0.3,), (3e6,)), 2.0),
    ]
    sched = Schedule.build(assocs, scn)
    assert sched.scheduled_uds == 3
    assert sched.ud_assignment[0] == (0, 0, 0.2, 2e6)
    assert sched.ud_assignment[2] == (1, 1, 0.3, 3e6)
    assert [u for u, _, _ in sched.ap_groups[0]] == [0, 1]
    assert sched.ap_groups[1][0][2] == 3e6


def test_schedule_rejects_duplicate_ud():
    scn = small_scenario(1)
    assocs = [
        NomaAssociation((0, 1), 0, 0, sol((0.2, 0.1), (2e6, 1e6)), 1.0),
        NomaAssociation((1,), 1, 1, sol((0.3,), (3e6,)), 2.0),
    ]
    with pytest.raises(InvalidAssignmentError):
        Schedule.build(assocs, scn)


def test_scheme_invariants_seeded():
    cfg = ScenarioConfig(seed=0, **BASE)
    cluster_cap = min(2 * cfg.n_aps * cfg.rrbs_per_ap, cfg.n_uds)
    offload_cap = min(2 * cfg.n_mecs, cfg.n_uds)
    for seed in range(6):
        scn = small_scenario(seed)
        for scheme in SCHEMES:
            schedule, plan = run_scheme(scn, scheme, seed=seed)
            for a in schedule.associations:
                assert 0 <= a.rrb < cfg.rrbs_per_ap
                for i, ud in enumerate(a.uds):
                    assert ud in scn.coverage[a.ap]
                    assert a.power.rates[i] > 0.0
            # chosen associations are pairwise compatible
            for i, a in enumerate(schedule.associations):
                for b in schedule.associations[i + 1:]:
                    assert not conflicts(a, b)
            m = plan.metrics
            assert 0 <= m.effective_capacity <= m.scheduled_uds <= cfg.n_uds
            limit = offload_cap if scheme == "all_offload" else cluster_cap
            assert m.effective_capacity <= limit
            served = set(schedule.ap_groups)
            assert plan.failed_aps <= served
            assert plan.fallback_aps <= served
            assert not (plan.failed_aps & plan.fallback_aps)


def test_joint_iteration_contract():
    for seed in range(4):
        scn = small_scenario(10 + seed)
        _, plan = run_scheme(scn, "joint", max_iters=5)
        it = plan.extras["iterations"]
        assert 1 <= it <= 5
        assert plan.extras["converged"] or it == 5
        assert plan.extras["vertices"] >= len(plan.extras["final_is_indices"])


def test_pruning_reports_graph_size():
    scn = small_scenario(2)
    _, plan = run_scheme(scn, "pruning")
    assert plan.extras["vertices"] == len(plan.extras["final_graph"])
    picked = plan.extras["final_is_indices"]
    assert all(0 <= i < plan.extras["vertices"] for i in picked)


def test_local_never_offloads():
    for seed in range(4):
        scn = small_scenario(20 + seed)
        _, plan = run_scheme(scn, "local")
        assert plan.admission.y == {}
        assert plan.admission.assignment == {}
        assert plan.fallback_aps == frozenset()
        assert plan.failed_aps == frozenset(
            m for m, flagged in plan.local.x.items() if flagged)


def test_all_offload_structure():
    for seed in range(4):
        scn = small_scenario(30 + seed)
        schedule, plan = run_scheme(scn, "all_offload")
        per_ap = {}
        for a in schedule.associations:
            assert a.rrb == 0
            per_ap[a.ap] = per_ap.get(a.ap, 0) + 1
        assert all(count == 1 for count in per_ap.values())
        assert all(plan.local.x.get(m, False) for m in schedule.ap_groups)
        admitted = {m for m, ok in plan.admission.y.items() if ok}
        assert len(admitted) <= len(scn.mecs)
        assert plan.failed_aps == set(schedule.ap_groups) - admitted
        assert plan.fallback_aps == frozenset()


def offload_graphs():
    """Hand-built graphs of 3,000 vertices, two thirds of them pairs, under
    both CC2 rules, with weights drawn from four values (many ties), with
    a tenth of them NaN, and with distinct weights."""
    rng = np.random.default_rng(29)
    for strict in (False, True):
        for kind in ("tied", "nan", "distinct"):
            assocs = []
            for i in range(3000):
                uds = tuple(sorted(rng.choice(40, size=1 + (i % 3 > 0), replace=False).tolist()))
                weight = (float(rng.integers(1, 5)) if kind == "tied" else
                          float("nan") if kind == "nan" and i % 10 == 0 else float(rng.random()))
                assocs.append(NomaAssociation(uds, int(rng.integers(3)), int(rng.integers(5)),
                                              None, weight))
            yield graph_of(assocs, strict_cc2=strict)


def test_all_offload_order_is_the_pairs_first_sort():
    """all_offload's chunked order is the one full sort by (is singleton,
    weight, ap, rrb, uds), NaN weights last in each part, and its greedy
    picks what walking that sort picks."""
    for graph in offload_graphs():
        want = pairs_first_order(graph)
        assert np.concatenate(list(schedulers._pairs_first(graph))).tolist() == want.tolist()
        picks = schedulers._greedy_by_order(graph, schedulers._pairs_first(graph)).indices
        assert picks == picks_in_order(graph, order=want.tolist())
    for seed in range(6):
        for strict in (False, True):
            scn = small_scenario(40 + seed)
            _, plan = run_scheme(scn, "all_offload", strict_cc2=strict)
            graph = plan.extras["final_graph"]
            assert plan.extras["final_is_indices"] == picks_in_order(
                graph, order=pairs_first_order(graph).tolist())


def test_random_is_seeded():
    scn = small_scenario(3)
    s1, p1 = run_scheme(scn, "random", seed=7)
    s2, p2 = run_scheme(scn, "random", seed=7)
    assert [a.key for a in s1.associations] == [a.key for a in s2.associations]
    assert p1.metrics == p2.metrics
    keys = {tuple(a.key for a in run_scheme(scn, "random", seed=s)[0].associations)
            for s in range(8)}
    assert len(keys) > 1


def test_random_without_fallback_fails_rejects():
    scn = small_scenario(4)
    _, with_fb = run_scheme(scn, "random", seed=5, fallback_local=True)
    _, without = run_scheme(scn, "random", seed=5, fallback_local=False)
    assert without.failed_aps == with_fb.fallback_aps
    assert with_fb.metrics.effective_capacity >= without.metrics.effective_capacity


def test_seed_is_ignored_outside_random():
    scn = small_scenario(5)
    for scheme in ("local", "all_offload"):
        _, a = run_scheme(scn, scheme, seed=3)
        _, b = run_scheme(scn, scheme, seed=9)
        assert a.metrics == b.metrics


def test_strict_cc2_blocks_rrb_reuse():
    # the second scenario commits APs in stage 1, whose RRBs stay taken
    for cfg in (ScenarioConfig(n_uds=12, n_aps=4, n_mecs=2, rrbs_per_ap=3, seed=6),
                STAGE1_CASES[1][1]):
        scn = generate(cfg)
        for scheme in ("joint", "pruning", "local", "random"):
            schedule, _ = run_scheme(scn, scheme, seed=1, strict_cc2=True)
            rrbs = [a.rrb for a in schedule.associations]
            assert len(rrbs) == len(set(rrbs)), scheme


def test_unknown_scheme_rejected():
    scn = small_scenario(7)
    with pytest.raises(ValueError):
        run_scheme(scn, "optimal")


def test_no_scheme_builds_the_adjacency(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scheduling path built the pairwise adjacency")

    monkeypatch.setattr(ConflictGraph, "_build_adjacency", staticmethod(refuse))
    scn = generate(ScenarioConfig(n_uds=24, seed=4))
    for strict in (False, True):
        for ordering in ("original", "modified"):
            for scheme in SCHEMES:
                _, plan = run_scheme(scn, scheme, seed=3, strict_cc2=strict,
                                     mwis_ordering=ordering)
                assert plan.metrics.scheduled_uds > 0


def test_max_iters_below_one_rejected():
    scn = small_scenario(8)
    for max_iters in (0, -1, 2.5, True, "3"):
        for scheme in SCHEMES:
            with pytest.raises(ValueError, match="max_iters"):
                run_scheme(scn, scheme, max_iters=max_iters)


def test_unknown_ordering_rejected_by_every_scheme():
    scn = small_scenario(8)
    for scheme in SCHEMES:
        with pytest.raises(ValueError, match="ordering"):
            run_scheme(scn, scheme, mwis_ordering="bogus")


# (mode, config): offload-mixed commits APs at the default CC2 rule; the
# strict rule leaves three slots in all, so only denser tasks commit there
STAGE1_CASES = (
    (False, ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0),
                           density_cpb=500.0, seed=0)),
    (True, ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0),
                          density_cpb=2000.0, seed=2)),
)

SOLVED = ("u1", "u2", "rrb_arr", "ap_arr", "weights", "slot",
          "_p1", "_p2", "_r1", "_r2", "_obj")


def test_stage1_graphs_equal_a_fresh_enumeration(monkeypatch):
    """Each stage-1 iteration schedules on the graph a fresh enumeration of
    the still-active UDs and APs at that iteration's frequencies gives, and
    ranks it bit for bit as the np.unique route does."""
    calls = []
    real = schedulers.greedy_min_wis

    def record(graph, ordering="original"):
        wis = real(graph, ordering)
        calls.append((graph, wis))
        return wis

    monkeypatch.setattr(schedulers, "greedy_min_wis", record)
    for strict, cfg in STAGE1_CASES:
        scn = generate(cfg)
        calls.clear()
        _, plan = run_scheme(scn, "joint", strict_cc2=strict, mwis_ordering="modified")
        assert plan.extras["committed_aps"] and len(calls) == plan.extras["iterations"] > 2
        coverage = dict(scn.coverage)
        f_loc = {ap.id: ap.f_loc_max_cps for ap in scn.aps}
        rrbs = list(range(cfg.rrbs_per_ap))
        for graph, wis in calls:
            # the pool as coverage: committed APs cover no one, committed UDs
            # are covered by no AP; strict CC2 also drops committed RRBs
            fresh = enumerate_full(dataclasses.replace(scn, coverage=coverage),
                                   strict_cc2=strict, rrbs=rrbs)
            fresh = reweighed(scn, fresh, np.ones(len(fresh), bool), f_loc)
            for name in SOLVED:
                assert np.array_equal(getattr(graph, name), getattr(fresh, name),
                                      equal_nan=True), name
            assert np.array_equal(modified_ranks(graph), modified_ranks_by_unique(graph))
            picked = [graph.vertex(i) for i in wis.indices]
            groups = {}
            for a in picked:
                groups.setdefault(a.ap, []).extend(scn.devices[u].task for u in a.uds)
            alloc = allocate_local(groups, {ap.id: ap.f_loc_max_cps for ap in scn.aps})
            flagged = {m for m, x in alloc.x.items() if x}
            moved = {u for a in picked if a.ap in flagged for u in a.uds}
            if strict:
                rrbs = [z for z in rrbs if z not in {a.rrb for a in picked if a.ap in flagged}]
            coverage = {m: frozenset() if m in flagged else uds - moved
                        for m, uds in coverage.items()}
            f_loc.update({m: f for m, f in alloc.f_loc.items() if not alloc.x[m]})


# STAGE1_CASES' strict config commits only under the modified ordering;
# denser tasks commit APs, and so RRB indices, under the original one
ORIGINAL_CASES = (STAGE1_CASES[0],
                  (True, dataclasses.replace(STAGE1_CASES[1][1], density_cpb=4000.0, seed=5)))


@pytest.mark.parametrize("scheme", ["local", "joint"])
def test_stage1_searches_the_singletons_of_a_fresh_enumeration(monkeypatch, scheme):
    """Under the original ordering each stage-1 iteration schedules on a
    pair-free graph: bit for bit the singleton rows of the graph a fresh
    enumeration of the still-active UDs, APs and RRBs at that iteration's
    frequencies gives. The final graph is the last such fresh graph whole,
    pairs included, and the final picks index it."""
    calls = []
    real = schedulers.greedy_min_wis

    def record(graph, ordering="original"):
        wis = real(graph, ordering)
        calls.append((graph, wis))
        return wis

    monkeypatch.setattr(schedulers, "greedy_min_wis", record)
    for strict, cfg in ORIGINAL_CASES:
        scn = generate(cfg)
        calls.clear()
        _, plan = run_scheme(scn, scheme, strict_cc2=strict)
        assert plan.extras["committed_aps"] and len(calls) == plan.extras["iterations"] > 2
        coverage = dict(scn.coverage)
        f_loc = {ap.id: ap.f_loc_max_cps for ap in scn.aps}
        rrbs = list(range(cfg.rrbs_per_ap))
        for graph, wis in calls:
            fresh = enumerate_full(dataclasses.replace(scn, coverage=coverage),
                                   strict_cc2=strict, rrbs=rrbs)
            fresh = reweighed(scn, fresh, np.ones(len(fresh), bool), f_loc)
            singles = fresh.u2 < 0
            assert np.all(graph.u2 < 0) and not np.all(singles)
            for name in SOLVED:
                assert np.array_equal(getattr(graph, name), getattr(fresh, name)[singles],
                                      equal_nan=True), name
            picked = [graph.vertex(i) for i in wis.indices]
            groups = {}
            for a in picked:
                groups.setdefault(a.ap, []).extend(scn.devices[u].task for u in a.uds)
            alloc = allocate_local(groups, {ap.id: ap.f_loc_max_cps for ap in scn.aps})
            flagged = {m for m, x in alloc.x.items() if x}
            moved = {u for a in picked if a.ap in flagged for u in a.uds}
            if strict:
                rrbs = [z for z in rrbs if z not in {a.rrb for a in picked if a.ap in flagged}]
            coverage = {m: frozenset() if m in flagged else uds - moved
                        for m, uds in coverage.items()}
            f_loc.update({m: f for m, f in alloc.f_loc.items() if not alloc.x[m]})
        final = plan.extras["final_graph"]
        for name in SOLVED:
            assert np.array_equal(getattr(final, name), getattr(fresh, name), equal_nan=True), name
        assert list(plan.extras["final_is_indices"]) == \
            np.flatnonzero(fresh.u2 < 0)[list(wis.indices)].tolist()
        assert plan.extras["vertices"] == len(enumerate_full(scn, strict_cc2=strict))


def test_joint_solves_powers_once(monkeypatch):
    """Every scheme builds one graph and solves all its clusters, singletons
    and pairs, in one solve_pairs_batch call."""
    calls = []
    real = graph_module.solve_pairs_batch

    def count(*args):
        calls.append(len(args[0]))
        return real(*args)

    def never(*args):
        raise AssertionError("singletons are solved with the pairs")

    monkeypatch.setattr(graph_module, "solve_pairs_batch", count)
    monkeypatch.setattr(graph_module, "solve_singletons_batch", never)
    for strict, cfg in STAGE1_CASES:
        for scheme in SCHEMES:
            calls.clear()
            _, plan = run_scheme(generate(cfg), scheme, strict_cc2=strict)
            if scheme in ("joint", "local"):
                assert plan.extras["iterations"] > 1
            assert len(calls) == 1, scheme


# The module attributes of nomec.schedulers each scheme reaches. A benchmark
# tracer times the layers by wrapping these attributes, so a scheme must call
# them through the module, not through a reference bound elsewhere.
REACHED = {
    "joint": {"greedy_min_wis", "allocate_local", "admission_control", "system_metrics"},
    "pruning": {"build_pruned", "greedy_min_wis", "allocate_local", "admission_control",
                "system_metrics"},
    "local": {"greedy_min_wis", "allocate_local", "system_metrics"},
    "all_offload": {"admission_control", "system_metrics"},
    "random": {"random_maximal_is", "allocate_local", "system_metrics"},
}


def test_schemes_reach_the_module_attributes(monkeypatch):
    reached = set()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in set().union(*REACHED.values()):
        monkeypatch.setattr(schedulers, name, counting(name, getattr(schedulers, name)))
    for strict, cfg in STAGE1_CASES:
        scn = generate(cfg)
        for ordering in ("original", "modified"):
            for scheme in SCHEMES:
                reached.clear()
                run_scheme(scn, scheme, seed=1, strict_cc2=strict, mwis_ordering=ordering)
                assert reached == REACHED[scheme], (scheme, ordering)


def test_rate_floor_beyond_float_range_schedules_nothing():
    """A floor whose SINR threshold 2 ** (R / B) - 1 overflows a float
    leaves every scheme an empty schedule, not a crash."""
    scn = generate(ScenarioConfig(rate_threshold_bps=2e10))
    for scheme in SCHEMES:
        schedule, plan = run_scheme(scn, scheme)
        assert schedule.associations == () and plan.extras["vertices"] == 0, scheme
        assert plan.metrics.cost == 0.0 and plan.metrics.effective_capacity == 0, scheme
