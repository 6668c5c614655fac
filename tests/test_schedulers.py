"""End-to-end scheme runners and schedule invariants."""

import numpy as np
import pytest

from nomec import (SCHEMES, ClusterPowerSolution, ConflictGraph,
                   NomaAssociation, Schedule, ScenarioConfig, conflicts,
                   generate, run_baseline, run_joint, run_scheme)
from nomec.model import InvalidAssignmentError

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
    sched = Schedule.from_associations(assocs, scn)
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
        Schedule.from_associations(assocs, scn)


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
    scn = generate(ScenarioConfig(n_uds=12, n_aps=4, n_mecs=2,
                                  rrbs_per_ap=3, seed=6))
    for scheme in ("joint", "pruning", "random"):
        schedule, _ = run_scheme(scn, scheme, seed=1, strict_cc2=True)
        rrbs = [a.rrb for a in schedule.associations]
        assert len(rrbs) == len(set(rrbs))


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
    for max_iters in (0, -1):
        with pytest.raises(ValueError):
            run_joint(scn, max_iters=max_iters)
        with pytest.raises(ValueError):
            run_baseline(scn, "local", max_iters=max_iters)
