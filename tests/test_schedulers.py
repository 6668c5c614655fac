"""End-to-end scheme runners and schedule invariants."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from nomec import (SCHEMES, ClusterPowerSolution, ConflictGraph,
                   NomaAssociation, Schedule, ScenarioConfig, allocate_local, backhaul_rates,
                   build_pruned, enumerate_full, generate, greedy_min_wis, group_demand_cps,
                   local_cost, mec_cost, modified_ranks, run_scheme, second_layer_weights,
                   system_metrics)
from nomec import graph as graph_module
from nomec.graph import _kept
from nomec import schedulers
from nomec.model import InvalidAssignmentError, cap_side
from nomec.mwis import ORDERINGS
from nomec.offload import AdmissionPlan, admission_control, first_layer_weight
from nomec.scenario import realize_channels, with_channel
import oracles
from oracles import (conflicts, graph_of, modified_ranks_by_unique, pairs_first_order,
                     picks_in_order, recompute_metrics, rows_of)

BASE = dict(n_uds=10, n_aps=4, n_mecs=2, rrbs_per_ap=2)


def small_scenario(seed):
    return generate(ScenarioConfig(seed=seed, **BASE))


def sol(powers, rates):
    return ClusterPowerSolution(tuple(powers), tuple(rates), 1.0)


def test_schedule_views():
    scn = small_scenario(1)
    assocs = [
        NomaAssociation((0, 1), 0, 0, sol((0.2, 0.1), (2e6, 1e6)), 1.0),
        NomaAssociation((2,), 1, 1, sol((0.3,), (3e6,)), 2.0),
    ]
    sched = Schedule.build(assocs, scn)
    assert len(sched.ud_assignment) == 3
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


def few_pairs_graphs():
    """Hand-built graphs of 3,000 vertices on six RRB indices under both CC2
    rules whose pairs hold only UDs 0-7, so at most four pairs fit and the
    scan reaches the singletons; weights are drawn from four values with a
    fifth of them NaN, in both parts."""
    rng = np.random.default_rng(31)
    for strict in (False, True):
        assocs = []
        for i in range(3000):
            pool = 8 if i % 3 else 40
            uds = tuple(sorted(rng.choice(pool, size=1 + (i % 3 > 0), replace=False).tolist()))
            weight = float("nan") if i % 10 < 2 else float(rng.integers(1, 5))
            assocs.append(NomaAssociation(uds, int(rng.integers(6)), int(rng.integers(5)),
                                          None, weight))
        yield graph_of(assocs, strict_cc2=strict)


def test_all_offload_order_is_the_pairs_first_sort():
    """all_offload's two-part scan picks what walking the one full sort by
    (is singleton, weight, ap, rrb, uds), NaN weights last in each part,
    picks."""
    both_parts = 0
    for graph in (*offload_graphs(), *few_pairs_graphs()):
        single = graph.u2 < 0
        picks = schedulers._scan(graph, (np.flatnonzero(~single), np.flatnonzero(single)),
                                 graph.weights).indices
        assert picks == picks_in_order(graph, order=pairs_first_order(graph).tolist())
        both_parts += len({bool(single[i]) for i in picks}) == 2
    assert both_parts >= 2
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


@pytest.mark.parametrize("name, value", [
    ("strict_cc2", "no"), ("strict_cc2", 1), ("strict_cc2", None),
    ("fallback_local", "off"), ("fallback_local", 0),
    ("seed", True), ("seed", np.bool_(True)), ("seed", -1), ("seed", 2.0), ("seed", "3"),
    ("seed", None)])
def test_non_bool_flags_and_bad_seeds_rejected(name, value):
    scn = small_scenario(8)
    for scheme in SCHEMES:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_scheme(scn, scheme, **{name: value})


def test_numpy_bools_and_integers_pass_as_flags_and_seeds():
    scn = small_scenario(8)
    for scheme in SCHEMES:
        want = run_scheme(scn, scheme, seed=3, strict_cc2=True, fallback_local=False)[1]
        got = run_scheme(scn, scheme, seed=np.int64(3), strict_cc2=np.bool_(True),
                         fallback_local=np.bool_(False))[1]
        assert got.metrics == want.metrics and got.failed_aps == want.failed_aps


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


def record_greedy(monkeypatch):
    """Record every call of schedulers.greedy_min_wis as (the searched graph
    packed into a fresh one with rows_of, the rows it packs, the package's
    modified ranks on them, the result). Stage 1 weighs its pool again in
    place, so the rows and their ranks are taken at call time."""
    calls = []
    real = schedulers.greedy_min_wis

    def record(graph, ordering="original"):
        wis = real(graph, ordering)
        rows = np.arange(len(graph))
        calls.append((rows_of(graph, rows), rows, modified_ranks(graph)[rows], wis))
        return wis

    monkeypatch.setattr(schedulers, "greedy_min_wis", record)
    return calls


def stage1_replay(scn, cfg, strict, ordering, calls, iterations):
    """Replay stage 1's iterations from the greedy calls it recorded.

    An iteration's input is the pool as coverage (committed APs cover no
    one, committed UDs are covered by no AP; strict CC2 also drops
    committed RRBs) and the per-AP frequencies. A new input takes the next
    call: the pool it searched, packed into a fresh graph, must be
    searched as that graph alone, with the same modified ranks bit for bit
    and the same picks. An input seen before takes no call and reuses its
    picks. Returns per iteration (searched graph, picks into it, fresh
    enumeration of the input at its frequencies, whether it made a call),
    and the distance back to the input the first repeat repeats, or 0.
    """
    coverage = dict(scn.coverage)
    f_loc = {ap.id: ap.f_loc_max_cps for ap in scn.aps}
    rrbs = list(range(cfg.rrbs_per_ap))
    pending = iter(calls)
    seen, replay, period = {}, [], 0
    for it in range(iterations):
        fresh = enumerate_full(dataclasses.replace(scn, coverage=coverage),
                               strict_cc2=strict, rrbs=rrbs)
        fresh = _kept(scn, fresh, np.ones(len(fresh), bool), f_loc)
        key = (tuple(sorted(coverage.items())), tuple(rrbs), tuple(f_loc.values()))
        if key in seen:
            first, graph, picks = seen[key]
            period = period or it - first
        else:
            graph, rows, ranks, wis = next(pending)
            assert np.array_equal(ranks, modified_ranks_by_unique(graph))
            picks = greedy_min_wis(graph, ordering).indices
            assert rows[list(picks)].tolist() == list(wis.indices)
            seen[key] = (it, graph, picks)
        replay.append((graph, picks, fresh, seen[key][0] == it))
        picked = [graph.vertex(i) for i in picks]
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
    assert next(pending, None) is None
    return replay, period


def test_stage1_graphs_equal_a_fresh_enumeration(monkeypatch):
    """Each stage-1 iteration schedules on the graph a fresh enumeration of
    the still-active UDs and APs at that iteration's frequencies gives, and
    ranks it bit for bit as the np.unique route does. An iteration whose
    input repeats makes no greedy call; at max_iters=8 the first case's
    input repeats with period 2."""
    calls = record_greedy(monkeypatch)
    repeats = 0
    for max_iters in (5, 8):
        for strict, cfg in STAGE1_CASES:
            scn = generate(cfg)
            calls.clear()
            _, plan = run_scheme(scn, "joint", strict_cc2=strict, mwis_ordering="modified",
                                 max_iters=max_iters)
            iterations = plan.extras["iterations"]
            assert plan.extras["committed_aps"] and iterations > 2
            replay, period = stage1_replay(scn, cfg, strict, "modified", calls, iterations)
            reused = sum(not made for *_, made in replay)
            assert len(calls) == iterations - reused
            assert plan.extras["cycle_period"] == period
            repeats += reused > 0
            for graph, _, fresh, _ in replay:
                for name in SOLVED:
                    assert np.array_equal(getattr(graph, name), getattr(fresh, name),
                                          equal_nan=True), name
    assert repeats == 1


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
    pairs included, and the final picks index it. The first case's input
    repeats with period 2 and makes no greedy call then."""
    calls = record_greedy(monkeypatch)
    for case, (strict, cfg) in enumerate(ORIGINAL_CASES):
        scn = generate(cfg)
        calls.clear()
        _, plan = run_scheme(scn, scheme, strict_cc2=strict)
        iterations = plan.extras["iterations"]
        assert plan.extras["committed_aps"] and iterations > 2
        replay, period = stage1_replay(scn, cfg, strict, "original", calls, iterations)
        reused = sum(not made for *_, made in replay)
        assert len(calls) == iterations - reused
        assert plan.extras["cycle_period"] == period == (2 if case == 0 else 0)
        for graph, _, fresh, _ in replay:
            singles = fresh.u2 < 0
            assert np.all(graph.u2 < 0) and not np.all(singles)
            for name in SOLVED:
                assert np.array_equal(getattr(graph, name), getattr(fresh, name)[singles],
                                      equal_nan=True), name
        graph, picks, fresh, _ = replay[-1]
        final = plan.extras["final_graph"]
        for name in SOLVED:
            assert np.array_equal(getattr(final, name), getattr(fresh, name), equal_nan=True), name
        assert list(plan.extras["final_is_indices"]) == \
            np.flatnonzero(fresh.u2 < 0)[list(picks)].tolist()
        assert plan.extras["vertices"] == len(enumerate_full(scn, strict_cc2=strict))


def test_stage1_reports_its_cycle_period():
    """cycle_period is how far back the first repeated stage-1 input lies,
    or 0. The first case cycles with period 2 from its 3rd iteration on
    under the original ordering, and needs 8 iterations to repeat under
    the modified one; the strict case converges."""
    (_, mixed), (strict, dense) = STAGE1_CASES
    want = (("original", 5, mixed, False, 2), ("modified", 5, mixed, False, 0),
            ("modified", 8, mixed, False, 2), ("modified", 8, dense, strict, 0))
    for ordering, max_iters, cfg, strict_cc2, period in want:
        for scheme in ("joint", "local"):
            _, plan = run_scheme(generate(cfg), scheme, strict_cc2=strict_cc2,
                                 mwis_ordering=ordering, max_iters=max_iters)
            if scheme == "joint" or ordering == "original":
                assert plan.extras["cycle_period"] == period, (ordering, max_iters, scheme)
            assert plan.extras["converged"] == (plan.extras["iterations"] < max_iters)
            assert plan.extras["cycle_period"] == 0 or not plan.extras["converged"]
    for scheme in ("pruning", "all_offload", "random"):
        assert "cycle_period" not in run_scheme(generate(mixed), scheme)[1].extras


def stage1_corpus(rng, count):
    """Random stage-1 scenarios: 8-60 UDs, the default light tasks or heavy
    ones that make APs commit, both CC2 rules and both orderings, and
    max_iters 1-8."""
    for _ in range(count):
        light = ScenarioConfig()
        heavy = rng.random() < 0.5
        cfg = ScenarioConfig(
            n_uds=int(rng.integers(8, 61)), n_aps=int(rng.integers(2, 10)),
            rrbs_per_ap=int(rng.integers(1, 4)), n_mecs=int(rng.integers(1, 5)),
            task_size_range_bits=(100.0, 2000.0) if heavy else light.task_size_range_bits,
            density_cpb=float(rng.choice([500.0, 2000.0])) if heavy else light.density_cpb,
            seed=int(rng.integers(1 << 30)))
        yield (cfg, bool(rng.integers(2)), str(rng.choice(["original", "modified"])),
               int(rng.integers(1, 9)))


# heavy tasks on 48 UDs: 15 of the cells fail the rate floor, and stage 1
# commits 4 APs at density 500 under the default CC2 rule, 2 at density
# 4000 under the strict one
DROP_AND_COMMIT = ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0),
                                 density_cpb=500.0, seed=1)
DROP_AND_COMMIT_CASES = ((False, DROP_AND_COMMIT),
                         (True, dataclasses.replace(DROP_AND_COMMIT, density_cpb=4000.0)))


def test_stage1_equals_the_copying_loop():
    """Stage 1 gives what the loop that copies its pool every iteration and
    reuses nothing gives: associations, extras but cycle_period, the final
    graph's columns with their dtypes, and the final picks. Past the random
    corpus, where no cell fails the rate floor, DROP_AND_COMMIT_CASES run
    under both orderings: there cells drop and APs commit."""
    rng = np.random.default_rng(71)
    committed = cycled = dropped = 0
    fixed = [(cfg, strict, ordering, 5) for strict, cfg in DROP_AND_COMMIT_CASES
             for ordering in ORDERINGS]
    for cfg, strict, ordering, max_iters in (*stage1_corpus(rng, 150), *fixed):
        scn = generate(cfg)
        got = schedulers._stage1(scn, schedulers._Options(0, max_iters, strict, ordering))
        want = oracles.stage1_by_copy(scn, strict, ordering, max_iters)
        assocs, graph, picks, extras = got
        assert assocs == want[0] and picks == want[2]
        assert type(picks) is tuple and all(type(i) is int for i in picks)
        cycled += extras.pop("cycle_period") > 0
        assert extras == want[3]
        for name in SOLVED:
            a, b = getattr(graph, name), getattr(want[1], name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
        committed += bool(extras["committed_aps"])
        cells = len(oracles.full_cells_by_ap(scn)[0])
        if (cfg, strict, ordering, max_iters) in fixed:
            assert extras["vertices"] == cells - 15
            assert len(extras["committed_aps"]) == (2 if strict else 4)
        dropped += extras["vertices"] < cells
    assert committed >= 30 and cycled >= 10 and dropped == len(fixed)


@pytest.mark.parametrize("scheme, ordering", [
    pytest.param("joint", "original", id="joint"), pytest.param("local", "original", id="local"),
    pytest.param("joint", "modified", id="joint-modified")])
def test_stage1_weighs_full_length_arrays_once(monkeypatch, scheme, ordering):
    """Stage 1 computes its pool's frequency-free weight terms once and
    weighs the pool from them at each new input, at the length of the
    graph the greedy then searches: the first pool's, shrinking only where
    APs committed, as a regathered pool gathers its terms instead of
    computing them. The final graph is weighed last, at its own length.
    Its terms are computed a second time only when it holds rows the pool
    lacks, the pairs the original ordering leaves out of the pool; else
    the pool is the final graph. A pool of every solved row is the solved
    graph itself, not a gathered copy."""
    terms, weighed, searched, gathered = [], [], [], []
    real_terms, real_weights = graph_module._channel_terms, graph_module._weights
    real_greedy, real_gathered = schedulers.greedy_min_wis, schedulers._gathered

    def record_terms(scenario, graph):
        terms.append(len(graph))
        return real_terms(scenario, graph)

    def record_weights(scenario, terms_, ap, f_loc):
        weighed.append(len(ap))
        return real_weights(scenario, terms_, ap, f_loc)

    def record_greedy(graph, ordering="original"):
        searched.append(len(graph))
        return real_greedy(graph, ordering)

    def record_gathered(graph, rows):
        gathered.append((len(graph), len(rows)))
        return real_gathered(graph, rows)

    for module in (graph_module, schedulers):
        monkeypatch.setattr(module, "_channel_terms", record_terms)
        monkeypatch.setattr(module, "_weights", record_weights)
    monkeypatch.setattr(schedulers, "greedy_min_wis", record_greedy)
    monkeypatch.setattr(schedulers, "_gathered", record_gathered)
    whole_pools = 0
    for strict, cfg in (*DROP_AND_COMMIT_CASES, (False, ScenarioConfig())):
        for calls in (terms, weighed, searched, gathered):
            calls.clear()
        scn = generate(cfg)
        _, plan = run_scheme(scn, scheme, strict_cc2=strict, mwis_ordering=ordering)
        final_graph = plan.extras["final_graph"]
        final = len(final_graph)
        pool = terms[0]
        pairs_left_out = ordering == "original" and bool((final_graph.u2 >= 0).any())
        assert terms == ([pool, final] if pairs_left_out else [pool])
        assert plan.extras["iterations"] > 1 and weighed[:-1] == searched
        assert searched[0] == pool and searched == sorted(searched, reverse=True)
        assert (searched[-1] < pool) == bool(plan.extras["committed_aps"])
        assert weighed[-1] == final
        assert (searched[-1] == final) == (not pairs_left_out)
        # the first pool is a gathered copy of the solved cells only when it is fewer
        cells = len(oracles.full_cells_by_ap(scn)[0])
        assert ((cells, pool) in gathered) == (pool < cells)
        whole_pools += pool == cells
    assert whole_pools == (1 if ordering == "modified" else 0)    # the default config


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


def test_tracer_layers_resolve():
    """Every (module, attribute) the benchmark's tracer patches still
    exists, so a traced run can install all of its spans."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    assert len(tracer.LAYERS) == 10
    for module, attr, _, _ in tracer.LAYERS:
        assert callable(getattr(module, attr)), (module.__name__, attr)


def test_zero_rate_backhaul_links_are_never_assigned():
    """No scheme admits an AP to a MEC over a zero-rate backhaul link, with
    every link dead or every other one. A candidate stays unadmitted only
    when no MEC left free has a live link to it, and the run is evaluated."""
    scn = generate(ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0),
                                  density_cpb=500.0, seed=1))
    gains = scn.channel.gain_ap_mec
    every_other = np.where(np.add.outer(*map(np.arange, gains.shape)) % 2 == 0, 0.0, gains)
    admitted = 0
    for dead in (np.zeros_like(gains), every_other):
        trial = with_channel(scn, dataclasses.replace(scn.channel, gain_ap_mec=dead))
        live = {(ap.id, mec.id): oracle_backhaul_rate(trial, ap, mec) > 0
                for ap in trial.aps for mec in trial.mecs}
        for scheme in SCHEMES:
            for fallback in (True, False):
                schedule, plan = run_scheme(trial, scheme, seed=1, fallback_local=fallback)
                assignment = plan.admission.assignment
                assert all(live[link] for link in assignment.items()), scheme
                free = {mec.id for mec in trial.mecs} - set(assignment.values())
                for m, admitted_here in plan.admission.y.items():
                    if not admitted_here:
                        assert not any(live[(m, k)] for k in free), (scheme, m)
                want = recompute_metrics(schedule, plan, trial)
                assert (plan.metrics.cost, plan.metrics.effective_capacity) == \
                    pytest.approx((want[2], want[3]), rel=1e-12), scheme
                admitted += len(assignment)
    assert admitted > 0


def admission_trials():
    """(label, scenario) pairs, three fading trials per case, whose
    admissions differ in kind: scaled and unscaled backhaul, a 100 dB
    shadowing spread that rounds some backhaul rates to zero, and every
    backhaul link dead or every other one."""
    heavy = dict(n_uds=48, task_size_range_bits=(100.0, 2000.0), density_cpb=500.0, seed=1)
    cases = [(f"scaled={scaled}", generate(ScenarioConfig(backhaul_bandwidth_scaling=scaled,
                                                          **heavy)), None)
             for scaled in (True, False)]
    cases += [(f"shadowing seed {seed}",
               generate(ScenarioConfig(n_uds=30, shadowing_std_db=100.0, seed=seed)), None)
              for seed in (3, 4)]
    cases += [(label, generate(ScenarioConfig(**heavy)), dead) for label, dead in (
        ("all links dead", lambda g: np.zeros_like(g)),
        ("every other link dead",
         lambda g: np.where(np.add.outer(*map(np.arange, g.shape)) % 2 == 0, 0.0, g)))]
    for label, scn, dead in cases:
        for trial in range(3):
            channel = realize_channels(scn, trial)
            if dead is not None:
                channel = dataclasses.replace(channel, gain_ap_mec=dead(channel.gain_ap_mec))
            yield label, with_channel(scn, channel)


def oracle_backhaul_rate(scenario, ap, mec):
    """The per-link oracle rate of the AP-to-MEC link in scenario."""
    chan = scenario.channel
    return oracles.backhaul_rate(ap.q_tx_w, float(chan.gain_ap_mec[ap.id, mec.id]),
                                 chan.noise_w, chan.rrb_bandwidth_hz,
                                 scenario.config.backhaul_bandwidth_scaling)


def random_admission_by_calls(scenario, candidates, seed):
    """_admit_random with one per-link oracle rate per link it reads."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    remaining = list(scenario.mecs)
    y = {m: False for m in candidates}
    assignment = {}
    for idx in rng.permutation(len(candidates)):
        if not remaining:
            break
        m = candidates[idx]
        usable = [k for k in remaining if oracle_backhaul_rate(scenario, scenario.aps[m], k) > 0]
        if usable:
            mec = usable[int(rng.integers(len(usable)))]
            remaining.remove(mec)
            y[m] = True
            assignment[m] = mec.id
    return AdmissionPlan(y, assignment)


def test_admission_reads_one_rate_table_with_the_bits_of_the_per_link_weights(monkeypatch):
    """_admit_weighted hands admission_control first-layer weights equal bit
    for bit to first_layer_weight and, per candidate, an affinity row
    indexed by MEC id equal bit for bit to the per-link oracle affinity,
    and returns the plan they give; _admit_random returns the plan of
    per-link oracle rates. Every AP holding a group is a candidate."""
    seen = []

    def recording(g, affinity):
        seen.append((g, affinity))
        return admission_control(g, affinity)

    monkeypatch.setattr(schedulers, "admission_control", recording)
    admitted = plans = 0
    zero_rate = set()
    for label, scn in admission_trials():
        for scheme in ("all_offload", "random"):
            schedule, _ = run_scheme(scn, scheme, seed=plans)
            candidates = sorted(schedule.ap_groups)
            seen.clear()
            plan = schedulers._admit_weighted(scn, schedule, candidates, plans)
            (g, affinity), = seen
            want_g, want_affinity = {}, {}
            for m in candidates:
                entries = schedule.ap_groups[m]
                want_g[m] = first_layer_weight([(t, r) for _, t, r in entries],
                                               scn.aps[m].f_loc_max_cps, scn.weights)
                sizes = [(t.size_bits, t.density_cpb) for _, t, _ in entries]
                want_affinity[m] = [oracles.second_layer_weight(
                    sizes, oracle_backhaul_rate(scn, scn.aps[m], mec)) for mec in scn.mecs]
            assert {k: v.hex() for k, v in g.items()} == \
                {k: v.hex() for k, v in want_g.items()}, label
            assert {m: [v.hex() for v in row] for m, row in affinity.items()} == \
                {m: [v.hex() for v in row] for m, row in want_affinity.items()}, label
            assert plan == admission_control(want_g, want_affinity), label
            assert schedulers._admit_random(scn, schedule, candidates, plans) == \
                random_admission_by_calls(scn, candidates, plans), label
            if any(0.0 in row for row in want_affinity.values()):
                zero_rate.add(label)
            admitted += len(plan.assignment)
            plans += 1
    assert zero_rate == {"shadowing seed 3", "shadowing seed 4", "all links dead",
                         "every other link dead"}
    assert plans == 6 * 3 * 2 and admitted > 0


# (label, config) of the pruning corpus: the defaults, dense tasks, a high
# rate floor, one RRB per AP, a 100 dB shadowing spread and heavy mixed tasks
PRUNING_CORPUS = (
    ("default", ScenarioConfig()),
    ("density 2000", ScenarioConfig(density_cpb=2000.0)),
    ("rate floor 2e7", ScenarioConfig(rate_threshold_bps=2e7)),
    ("one rrb", ScenarioConfig(rrbs_per_ap=1)),
    ("shadowing 100 dB", ScenarioConfig(n_uds=30, shadowing_std_db=100.0)),
    ("offload-mixed", ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0),
                                     density_cpb=500.0)),
)


def pruning_corpus():
    """(label, strict_cc2, scenario): each corpus config at topology seeds
    0-2, two fading trials each, under both CC2 rules."""
    for label, cfg in PRUNING_CORPUS:
        for seed in range(3):
            scn = generate(dataclasses.replace(cfg, seed=seed))
            for trial in range(2):
                trial_scn = with_channel(scn, realize_channels(scn, trial))
                for strict in (False, True):
                    yield label, strict, trial_scn


def test_pruned_pairs_sort_after_their_seed_singletons():
    """Each pair of a pruned graph holds its slot's seed, whose singleton on
    the same (AP, RRB) orders strictly before the pair by the greedy's key
    (weight, ap, rrb, u1, u2): the reason pruning's greedy may search the
    singletons alone."""
    pairs = 0
    for label, strict, scn in pruning_corpus():
        g = build_pruned(scn, strict_cc2=strict)
        keys = list(zip(g.weights.tolist(), g.ap_arr.tolist(), g.rrb_arr.tolist(),
                        g.u1.tolist(), g.u2.tolist()))
        seed_key = {(k[1], k[2]): k for k in keys if k[4] < 0}
        assert len(seed_key) == np.count_nonzero(g.u2 < 0), label   # one seed per slot
        for key in keys:
            if key[4] < 0:
                continue
            seed = seed_key[(key[1], key[2])]
            assert seed[3] in key[3:], (label, strict, key)
            assert key > seed, (label, strict, key, seed)
            pairs += 1
    assert pairs > 4000


def test_pruning_picks_equal_the_whole_graph_greedy():
    """pruning's picks, as positions in its final graph, are the original
    ordering's greedy picks over the whole pruned graph, in order; under
    the modified ordering it still searches the whole graph."""
    for label, strict, scn in pruning_corpus():
        whole = build_pruned(scn, strict_cc2=strict)
        for ordering in ORDERINGS:
            schedule, plan = run_scheme(scn, "pruning", strict_cc2=strict,
                                        mwis_ordering=ordering)
            picks = greedy_min_wis(whole, ordering).indices
            assert plan.extras["final_is_indices"] == picks, (label, strict, ordering)
            final = plan.extras["final_graph"]
            for name in SOLVED:
                assert np.array_equal(getattr(final, name), getattr(whole, name),
                                      equal_nan=True), name
            assert list(schedule.associations) == whole.vertices_at(list(picks))


def metrics_by_public_formulas(schedule, plan, scenario):
    """system_metrics spelled with the public per-group formulas, each
    summing its group itself."""
    w = scenario.weights
    latency = energy = 0.0
    capacity = scheduled = 0
    for ap_id, entries in schedule.ap_groups.items():
        scheduled += len(entries)
        if ap_id in plan.failed_aps:
            continue
        ap = scenario.aps[ap_id]
        group = [(task, rate) for _, task, rate in entries]
        tasks = [task for _, task, _ in entries]
        deadline = min(t.deadline_s for t in tasks)
        if not plan.local.x.get(ap_id, False):
            d, e = local_cost(group, plan.local.f_loc[ap_id], w)
            ok = cap_side(group_demand_cps(tasks), ap.f_loc_max_cps) <= 0
        elif plan.admission.y.get(ap_id, False):
            mec = scenario.mecs[plan.admission.assignment[ap_id]]
            d, e = mec_cost(group, ap, mec, scenario.channel, w,
                            scenario.config.backhaul_bandwidth_scaling)
            ok = d <= deadline
        else:
            d, e = local_cost(group, ap.f_loc_max_cps, w)
            ok = d <= deadline
        latency = max(latency, d)
        energy += e
        capacity += len(entries) if ok else 0
    return (latency, energy, w.w_latency * latency + w.w_energy * energy, capacity, scheduled)


def test_per_call_totals_are_the_public_formulas():
    """What run_scheme reads from each group's one-pass totals equals, bit
    for bit, what the public per-group functions give: the metrics (also
    recomputed on a fresh schedule and the plan without metrics), the
    local allocation, and the weighted admission."""
    admitted = offloaded = 0
    for strict, cfg in (*STAGE1_CASES, (False, ScenarioConfig(seed=3))):
        scn = generate(cfg)
        for trial in range(2):
            trial_scn = with_channel(scn, realize_channels(scn, trial))
            for scheme in SCHEMES:
                for fallback in (True, False):
                    schedule, plan = run_scheme(trial_scn, scheme, seed=trial,
                                                strict_cc2=strict, fallback_local=fallback)
                    m = plan.metrics
                    got = (m.latency_s, m.energy_j, m.cost, m.effective_capacity,
                           m.scheduled_uds)
                    assert repr(got) == repr(metrics_by_public_formulas(
                        schedule, plan, trial_scn)), scheme
                    fresh = Schedule.build(schedule.associations, trial_scn)
                    bare = dataclasses.replace(plan, metrics=None)
                    assert repr(system_metrics(fresh, bare, trial_scn)) == repr(m), scheme
                    groups = {a: [t for _, t, _ in e] for a, e in schedule.ap_groups.items()}
                    if scheme != "all_offload":
                        assert plan.local == allocate_local(groups, graph_module._caps(trial_scn))
                    candidates = sorted(a for a, x in plan.local.x.items() if x)
                    offloaded += len(candidates)
                    if scheme not in ("joint", "pruning", "all_offload") or not candidates:
                        continue
                    rates = backhaul_rates([trial_scn.aps[a] for a in candidates],
                                           trial_scn.mecs, trial_scn.channel,
                                           cfg.backhaul_bandwidth_scaling)
                    g = {a: first_layer_weight([(t, r) for _, t, r in schedule.ap_groups[a]],
                                               trial_scn.aps[a].f_loc_max_cps, trial_scn.weights)
                         for a in candidates}
                    affinity = {a: second_layer_weights(groups[a], rates[a]) for a in candidates}
                    assert plan.admission == admission_control(g, affinity), scheme
                    admitted += len(plan.admission.assignment)
    assert offloaded > 0 and admitted > 0


def test_picked_vertices_equal_init_built_ones():
    """vertices_at's objects, made without their dataclass __init__, equal
    and hash as __init__-built ones and refuse assignment."""
    scn = generate(ScenarioConfig(n_uds=12, seed=4))
    g = enumerate_full(scn)
    idx = list(range(0, len(g), 7))
    assert np.any(g.u2[idx] >= 0) and np.any(g.u2[idx] < 0)
    for i, v in zip(idx, g.vertices_at(idx)):
        members = 1 if g.u2[i] < 0 else 2
        uds = (int(g.u1[i]), int(g.u2[i]))[:members]
        power = ClusterPowerSolution((float(g._p1[i]), float(g._p2[i]))[:members],
                                     (float(g._r1[i]), float(g._r2[i]))[:members],
                                     float(g._obj[i]))
        want = NomaAssociation(uds, int(g.rrb_arr[i]), int(g.ap_arr[i]), power,
                               float(g.weights[i]))
        assert v == want and hash(v) == hash(want) and repr(v) == repr(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.weight = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.power.objective = 0.0
    assert g.vertices_at([]) == []
