"""Conflict graph construction: vertices, edges, weights, pruning."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from nomec import (SCHEMES, ClusterPowerSolution, NomaAssociation, ScenarioConfig, Task,
                   allocate_local, build_full, build_pruned, enumerate_full, generate,
                   group_demand_cps, modified_weight, run_scheme)
from nomec import graph as graph_module
from nomec.graph import (_cached, _caps, _cell_columns, _full_cells, _gathered, _kept, _solve,
                         full_cell_count)
from nomec.scenario import ConfigError
from nomec.model import REL_TOL
from nomec.scenario import realize_channels, with_channel
import oracles
from oracles import conflicts, graph_of


def assoc(uds, rrb=0, ap=0, weight=1.0):
    return NomaAssociation(tuple(uds), rrb, ap, None, weight)


def random_assocs(rng, count, n_uds=8, n_aps=3, n_rrbs=3):
    out = []
    seen = set()
    while len(out) < count:
        if rng.random() < 0.5:
            uds = (int(rng.integers(n_uds)),)
        else:
            pair = rng.choice(n_uds, size=2, replace=False)
            uds = tuple(sorted(int(u) for u in pair))
        key = (uds, int(rng.integers(n_rrbs)), int(rng.integers(n_aps)))
        if key in seen:
            continue
        seen.add(key)
        out.append(NomaAssociation(key[0], key[1], key[2], None,
                                   float(rng.uniform(0.1, 5.0))))
    return out


def test_association_validation():
    NomaAssociation((3,), 0, 0)
    NomaAssociation((3, 5), 0, 0)
    with pytest.raises(ValueError):
        NomaAssociation((3, 5, 7), 0, 0)
    with pytest.raises(ValueError):
        NomaAssociation((5, 3), 0, 0)
    with pytest.raises(ValueError):
        NomaAssociation((3, 3), 0, 0)


def test_conflicts_rules():
    a = assoc((0, 1), rrb=0, ap=0)
    assert conflicts(a, assoc((1, 2), rrb=1, ap=1))          # shared UD
    assert conflicts(a, assoc((4,), rrb=0, ap=0))            # same AP slot
    assert not conflicts(a, assoc((4,), rrb=0, ap=1))        # same RRB, other AP
    assert conflicts(a, assoc((4,), rrb=0, ap=1), strict_cc2=True)
    assert not conflicts(a, assoc((4, 5), rrb=1, ap=0))


def test_adjacency_matches_pairwise_conflicts():
    """Dual route: the vectorized bitset build must agree with the scalar
    conflict predicate on every pair."""
    rng = np.random.default_rng(3)
    for strict in (False, True):
        for _ in range(10):
            verts = random_assocs(rng, 40)
            graph = graph_of(verts, strict_cc2=strict)
            mat = oracles.adjacency_matrix(graph)
            assert mat.shape == (40, 40)
            assert not mat.diagonal().any()
            for i in range(40):
                for j in range(40):
                    want = i != j and conflicts(verts[i], verts[j], strict)
                    assert mat[i, j] == want


def test_neighbor_views_consistent():
    """Each packed adjacency row unpacks to the dense matrix's row, and the
    matrix is symmetric."""
    rng = np.random.default_rng(5)
    graph = graph_of(random_assocs(rng, 30))
    mat = oracles.adjacency_matrix(graph)
    for i in range(len(graph)):
        row = np.unpackbits(graph.adj_bits[i], count=len(graph)).astype(bool)
        assert (row == mat[i]).all()
    assert (mat == mat.T).all()


def test_graph_vertex_lookup():
    verts = [assoc((0,), 0, 0, 1.0), assoc((1, 2), 1, 0, 2.0)]
    graph = graph_of(verts)
    assert len(graph) == 2
    assert graph.vertex(0).uds == (0,)
    assert [v.key for v in graph.vertices] == [v.key for v in verts]
    assert graph.vertex(1).weight == 2.0


def test_empty_graph():
    graph = graph_of(())
    assert len(graph) == 0 and graph.vertices == ()
    assert oracles.adjacency_matrix(graph).shape == (0, 0)


def test_vertex_weight_formula():
    """Full and pruned graphs weigh vertices with one formula: the summed
    per-UD utility at the AP frequency, matching the oracle's."""
    scn = generate(ScenarioConfig(n_uds=12, n_aps=3, n_mecs=2, seed=1))
    f_loc = {ap.id: (0.4 + 0.2 * ap.id) * ap.f_loc_max_cps for ap in scn.aps}
    full = enumerate_full(scn)
    graphs = ((build_pruned(scn), None), (full, None),
              (_kept(scn, copy.copy(full), np.ones(len(full), bool), f_loc), f_loc))
    for graph, freqs in graphs:
        assert len(graph) > 0 and any(len(v.uds) == 2 for v in graph.vertices)
        for v in graph.vertices:
            f = scn.aps[v.ap].f_loc_max_cps if freqs is None else freqs[v.ap]
            entries = [(scn.devices[u].task.size_bits, scn.devices[u].task.density_cpb,
                        v.power.rates[k]) for k, u in enumerate(v.uds)]
            want = oracles.vertex_weight(entries, f, scn.weights.alpha_cpu)
            assert v.weight == pytest.approx(want, rel=1e-12)


def test_modified_weight_example():
    # weight 2 with non-adjacent weights {3, 5} gives 2 * 8 = 16
    verts = [assoc((0,), 0, 0, 2.0), assoc((1,), 0, 1, 3.0), assoc((2,), 0, 2, 5.0)]
    graph = graph_of(verts)
    assert modified_weight(0, graph) == pytest.approx(16.0)
    adj = oracles.adjacency_matrix(graph)
    for i in range(3):
        want = oracles.modified_weight(i, adj.tolist(), [2.0, 3.0, 5.0])
        assert modified_weight(i, graph) == pytest.approx(want)


def test_build_full_unconstrained_count():
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, rrbs_per_ap=2,
                         ap_coverage_m=4000.0, rate_threshold_bps=0.0, seed=2)
    graph = build_full(generate(cfg))
    assert len(graph) == oracles.full_vertex_count(6, 3, 2)


def test_build_full_weights_match_oracles():
    """Every vertex's rates are the SIC rates at its solved powers, no grid
    point beats its objective, and its weight is the direct formula's."""
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, rrbs_per_ap=2, seed=3)
    scn = generate(cfg)
    graph = build_full(scn)
    cons = oracles.PowerLimits(p_max_w=scn.devices[0].p_max_w,
                               rate_threshold_bps=cfg.rate_threshold_bps)
    chan = scn.channel
    assert len(graph) > 0 and any(len(v.uds) == 2 for v in graph.vertices)
    for i in range(len(graph)):
        v = graph.vertex(i)
        gains = {u: float(chan.gain_ud_rrb[u, v.ap, v.rrb]) for u in v.uds}
        powered = list(zip(v.uds, v.power.powers))
        sinrs = [oracles.sic_sinr(powered, gains, u, chan.noise_w) for u in v.uds]
        assert v.power.rates == pytest.approx(
            [oracles.shannon_rate(s, chan.rrb_bandwidth_hz) for s in sinrs], rel=1e-12)
        assert all(0.0 <= p <= cons.p_max_w for p in v.power.powers)
        objective = sum(math.log2(1.0 + s) for s in sinrs)
        assert v.power.objective == pytest.approx(objective, rel=1e-12)
        grid = oracles.grid_oracle(list(gains.items()), chan, cons, resolution=64)
        assert grid.objective <= objective * (1.0 + 1e-12)
        f_ap = scn.aps[v.ap].f_loc_max_cps
        entries = [(scn.devices[u].task.size_bits, scn.devices[u].task.density_cpb,
                    v.power.rates[k]) for k, u in enumerate(v.uds)]
        assert v.weight == pytest.approx(
            oracles.vertex_weight(entries, f_ap, scn.weights.alpha_cpu), rel=1e-12)


def test_build_full_respects_coverage_and_threshold():
    cfg = ScenarioConfig(n_uds=10, n_aps=4, n_mecs=2, seed=4)
    scn = generate(cfg)
    graph = build_full(scn)
    for v in graph.vertices:
        for u in v.uds:
            assert u in scn.coverage[v.ap]
        for r in v.power.rates:
            assert r >= cfg.rate_threshold_bps * (1.0 - 1e-12)
    # an impossible rate floor removes everything
    impossible = generate(ScenarioConfig(n_uds=10, n_aps=4, n_mecs=2, seed=4,
                                         rate_threshold_bps=1e9))
    assert len(build_full(impossible)) == 0


def test_build_full_filters():
    cfg = ScenarioConfig(n_uds=8, n_aps=4, n_mecs=2, seed=5)
    scn = generate(cfg)
    sub = build_full(scn, rrbs=[0])
    assert len(sub) > 0
    assert all(v.rrb == 0 for v in sub.vertices)
    pairs_off = build_full(scn, rrbs=[1])
    assert all(v.rrb == 1 for v in pairs_off.vertices)


def test_build_full_f_loc_forms():
    """build_full weighs at the caps; _kept weighs at any other per-AP
    frequency, in place and on a gathered copy alike, and gives the caps'
    weights back bit for bit."""
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, seed=6)
    scn = generate(cfg)
    g_default = build_full(scn)
    keep = np.ones(len(g_default), bool)
    every = np.arange(len(g_default))
    caps = {ap.id: ap.f_loc_max_cps for ap in scn.aps}
    g_caps = _kept(scn, _gathered(g_default, every), keep, caps)
    assert list(g_default.weights) == list(g_caps.weights)
    in_place = _kept(scn, copy.copy(g_default), keep, caps)
    assert in_place.weights.tobytes() == g_default.weights.tobytes()
    half = {ap.id: ap.f_loc_max_cps / 2 for ap in scn.aps}
    g_dict = _kept(scn, _gathered(g_default, every), keep, half)
    assert len(g_dict) == len(g_default)
    assert list(g_dict.weights) != list(g_default.weights)
    in_place = _kept(scn, copy.copy(g_default), keep, half)
    assert in_place.weights.tobytes() == g_dict.weights.tobytes()


def test_load_helpers():
    scn = generate(ScenarioConfig(n_uds=4, n_aps=2, n_mecs=2, seed=7))
    t0 = scn.devices[0].task
    t1 = scn.devices[1].task
    assert group_demand_cps([t0]) == pytest.approx(t0.cycles / t0.deadline_s, rel=1e-12)
    want = (t0.cycles + t1.cycles) / (2.0 * min(t0.deadline_s, t1.deadline_s))
    assert group_demand_cps([t0, t1]) == pytest.approx(want, rel=1e-12)
    assert group_demand_cps([t0, t1]) == oracles.group_demand_cps(
        [t0.cycles, t1.cycles], [t0.deadline_s, t1.deadline_s])


def test_build_pruned_subset_of_full():
    rng = np.random.default_rng(8)
    for _ in range(15):
        seed = int(rng.integers(10_000))
        n = int(rng.integers(4, 11))
        cfg = ScenarioConfig(n_uds=n, n_aps=4, n_mecs=2, seed=seed)
        scn = generate(cfg)
        full_keys = {v.key for v in build_full(scn).vertices}
        pruned = build_pruned(scn)
        assert {v.key for v in pruned.vertices} <= full_keys


def test_build_pruned_one_seed_per_slot():
    scn = generate(ScenarioConfig(n_uds=12, n_aps=4, n_mecs=2, seed=9))
    pruned = build_pruned(scn)
    by_slot = {}
    for v in pruned.vertices:
        by_slot.setdefault((v.ap, v.rrb), []).append(v)
    budget = {ap.id: ap.f_loc_max_cps / ap.num_rrbs for ap in scn.aps}
    for (ap_id, _), verts in by_slot.items():
        singles = [v for v in verts if len(v.uds) == 1]
        # exactly one seed per populated slot; every pair contains it
        assert len(singles) <= 1
        seed_candidates = set(singles[0].uds) if singles else None
        for v in verts:
            if len(v.uds) == 2:
                if seed_candidates is not None:
                    assert seed_candidates & set(v.uds)
                ta = scn.devices[v.uds[0]].task
                tb = scn.devices[v.uds[1]].task
                assert group_demand_cps([ta, tb]) <= budget[ap_id] * (1.0 + 1e-9)
        if singles:
            load = group_demand_cps([scn.devices[singles[0].uds[0]].task])
            assert load <= budget[ap_id] * (1.0 + 1e-9)


def test_build_pruned_pairs_every_covered_ud_passing_the_load_test():
    """Each seed pairs with exactly the covered UDs whose pooled load with
    it, group_demand_cps of the two tasks, fits the slot budget, among the
    rate-feasible clusters. Per-UD deadlines make the pooled deadline the
    smaller of two; in the last scenario, tasks of 500 and 1500 bits pool
    to a load on the budget itself."""
    rng = np.random.default_rng(71)

    def with_tasks(scn, task_of):
        return dataclasses.replace(scn, devices=tuple(
            dataclasses.replace(d, task=dataclasses.replace(d.task, **task_of(d)))
            for d in scn.devices))

    scenarios = []
    for seed in range(6):
        scn = generate(ScenarioConfig(n_uds=40, task_size_range_bits=(100.0, 2000.0),
                                      density_cpb=300.0, seed=seed))
        if seed % 2:
            scn = with_tasks(scn, lambda d: {"deadline_s": float(rng.choice([0.005, 0.01, 0.02]))})
        scenarios.append(scn)
    scn = generate(ScenarioConfig(n_uds=12, n_aps=3, f_loc_max_cps=3e7, seed=1))
    scenarios.append(with_tasks(scn, lambda d: {"size_bits": 500.0 + 1000.0 * (d.id % 2)}))
    outcomes = set()
    for scn in scenarios:
        full_keys = {v.key for v in enumerate_full(scn).vertices}
        budget = {ap.id: ap.f_loc_max_cps / ap.num_rrbs for ap in scn.aps}
        pruned = build_pruned(scn).vertices
        for single in (v for v in pruned if len(v.uds) == 1):
            (s,) = single.uds
            got = {u for v in pruned if len(v.uds) == 2 and (v.ap, v.rrb) == (single.ap, single.rrb)
                   for u in v.uds if u != s}
            cap = budget[single.ap]
            # a seed whose own load sits on the budget takes no partner
            alone = abs(group_demand_cps([scn.devices[s].task]) - cap) <= 1e-9 * cap
            for u in scn.coverage[single.ap] - {s}:
                fits = not alone and group_demand_cps(
                    [scn.devices[s].task, scn.devices[u].task]) <= cap * (1.0 + 1e-9)
                feasible = (tuple(sorted((s, u))), single.rrb, single.ap) in full_keys
                assert (u in got) == (fits and feasible)
                outcomes.add(fits)
    assert outcomes == {True, False}


def test_build_pruned_threshold_seed_is_singleton_only():
    # every UD load sits exactly on the per-slot budget, so the pruned
    # graph contains singletons only
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, f_loc_max_cps=3e7,
                         task_size_range_bits=(1000.0, 1000.0), seed=10)
    scn = generate(cfg)
    budget = 3e7 / 3
    for d in scn.devices:
        assert group_demand_cps([d.task]) == pytest.approx(budget, rel=1e-12)
    pruned = build_pruned(scn)
    assert len(pruned) > 0
    assert all(len(v.uds) == 1 for v in pruned.vertices)


def test_build_pruned_seeds_exactly_the_tasks_allocate_local_keeps_local():
    """With one UD, one AP and one RRB, build_pruned holds the UD's
    singleton exactly when allocate_local keeps its task local, and the
    local scheme counts it in capacity then: at loads on both spellings of
    the tolerance band's edges and one float step either side of each. The
    first load lies between the two spellings of the lower edge."""
    cap = 270516927.05010647
    scn = generate(ScenarioConfig(n_uds=1, n_aps=1, n_mecs=1, rrbs_per_ap=1,
                                  f_loc_max_cps=cap, ap_coverage_m=1e4))
    edges = (cap * (1 - REL_TOL), cap - REL_TOL * cap, cap * (1 + REL_TOL), cap + REL_TOL * cap)
    loads = [270516926.77958953] + [load for edge in edges for load in (
        math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]
    outcomes = set()
    for load in loads:
        # density 1 and a 1 s deadline make the load the task size
        task = Task(load, 1.0, 1.0)
        one = dataclasses.replace(scn, devices=(dataclasses.replace(scn.devices[0], task=task),))
        local = not allocate_local({0: [task]}, {0: cap}).x[0]
        assert len(enumerate_full(one)) == 1
        assert len(build_pruned(one)) == local, load
        assert run_scheme(one, "local")[1].metrics.effective_capacity == local, load
        outcomes.add(local)
    assert outcomes == {True, False}


def test_build_pruned_empty_when_loads_violate():
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, density_cpb=8000.0, seed=11)
    scn = generate(cfg)
    assert len(build_pruned(scn)) == 0


def test_gathered_keeps_the_source_slots():
    """A copy without the top RRB keeps its source's slot numbers instead
    of renumbering them from its own rows."""
    graph = enumerate_full(generate(ScenarioConfig(n_uds=12, seed=3)))
    rows = np.flatnonzero(graph.rrb_arr < 2)
    assert 0 < rows.size < len(graph)
    assert np.array_equal(_gathered(graph, rows).slot, graph.slot[rows])


def test_custom_graph_lazy_vertex_access():
    cfg = ScenarioConfig(n_uds=5, n_aps=3, n_mecs=2, seed=12)
    scn = generate(cfg)
    graph = build_full(scn)
    if len(graph) == 0:
        pytest.skip("no feasible vertices for this seed")
    v = graph.vertex(0)
    assert isinstance(v, NomaAssociation)
    assert graph.vertices[0].key == v.key
    assert graph_of(graph.vertices).vertices == graph.vertices


def vertex_by_scalars(graph, i):
    """Vertex i of graph read one scalar at a time, as int and float."""
    u1, u2 = int(graph.u1[i]), int(graph.u2[i])
    members = (0,) if u2 < 0 else (0, 1)
    powers = tuple(float((graph._p1, graph._p2)[k][i]) for k in members)
    rates = tuple(float((graph._r1, graph._r2)[k][i]) for k in members)
    return NomaAssociation((u1,) if u2 < 0 else (u1, u2), int(graph.rrb_arr[i]),
                           int(graph.ap_arr[i]),
                           ClusterPowerSolution(powers, rates, float(graph._obj[i])),
                           float(graph.weights[i]))


def test_vertices_at_reads_each_vertex_as_its_scalars():
    """vertices_at(idx) gives per position, repeats and any order allowed,
    the vertex its scalars make, every value a Python int or float;
    vertex(i) is its one-element case."""
    for strict in (False, True):
        graph = enumerate_full(generate(ScenarioConfig(n_uds=12, seed=13)), strict_cc2=strict)
        assert (graph.u2 < 0).any() and (graph.u2 >= 0).any()
        idx = np.random.default_rng(5).integers(len(graph), size=60).tolist() + [0, len(graph) - 1]
        got = graph.vertices_at(idx)
        assert got == [vertex_by_scalars(graph, i) for i in idx] == [graph.vertex(i) for i in idx]
        for v in got:
            assert all(type(u) is int for u in v.uds) and type(v.rrb) is type(v.ap) is int
            assert type(v.weight) is float and type(v.power.objective) is float
            assert all(type(x) is float for x in v.power.powers + v.power.rates)
        assert graph.vertices_at([]) == [] and graph.vertices_at(np.array(idx[:3])) == got[:3]


def test_enumerate_full_matches_build_full_without_edges():
    for strict in (False, True):
        scn = generate(ScenarioConfig(n_uds=12, seed=13))
        for kwargs in ({}, {"rrbs": [0]}):
            lazy = enumerate_full(scn, strict_cc2=strict, **kwargs)
            full = build_full(scn, strict_cc2=strict, **kwargs)
            assert lazy._adj_bits is None and full._adj_bits is not None
            for name in ("u1", "u2", "rrb_arr", "ap_arr", "weights", "slot"):
                assert np.array_equal(getattr(lazy, name), getattr(full, name))
            assert [v.power for v in lazy.vertices] == [v.power for v in full.vertices]
            assert np.array_equal(lazy.adj_bits, full.adj_bits)


def test_pruned_adjacency_is_lazy():
    scn = generate(ScenarioConfig(n_uds=12, seed=14))
    pruned = build_pruned(scn)
    assert len(pruned) > 0 and pruned._adj_bits is None
    mat = oracles.adjacency_matrix(pruned)
    verts = pruned.vertices
    for i in range(len(verts)):
        for j in range(len(verts)):
            assert mat[i, j] == (i != j and conflicts(verts[i], verts[j]))


def test_pairs_outweigh_both_member_singletons():
    """Every feasible pair vertex is strictly heavier than the singleton of
    each of its members on the same AP and RRB, and both singletons are
    present: a pair's weight adds two positive per-UD terms, and neither
    member gets a higher rate in the pair than alone. So a lightest-first
    greedy meets a singleton before the pair it blocks."""
    rng = np.random.default_rng(61)
    configs = (ScenarioConfig(),
               ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0), density_cpb=500.0))
    checked = 0
    for base in configs:
        for seed in range(12):
            scn = generate(dataclasses.replace(base, seed=seed))
            f_loc = {ap.id: float(rng.uniform(0.05, 1.0)) * ap.f_loc_max_cps for ap in scn.aps}
            for strict in (False, True):
                graph = enumerate_full(scn, strict_cc2=strict)
                graph = _kept(scn, graph, np.ones(len(graph), bool), f_loc)
                rows = list(zip(graph.u1.tolist(), graph.u2.tolist(), graph.ap_arr.tolist(),
                                graph.rrb_arr.tolist(), graph.weights.tolist()))
                alone = {(u1, ap, rrb): w for u1, u2, ap, rrb, w in rows if u2 < 0}
                for u1, u2, ap, rrb, w in rows:
                    for u in (u1, u2) if u2 >= 0 else ():
                        assert (u, ap, rrb) in alone
                        assert w > alone[(u, ap, rrb)]
                        checked += 1
    assert checked > 100_000


def pair_slot_repeats(graph):
    """How many vertices repeat the (u1, u2, slot) of an earlier one."""
    keys = np.stack([graph.u1, graph.u2, graph.slot], axis=1)
    return len(keys) - len(np.unique(keys, axis=0))


def test_default_cc2_emits_each_cluster_once_per_slot():
    """modified_ranks takes the (pair, slot) weight sum under the default
    CC2 rule to be the pair's own weight. That needs every (u1, u2, slot)
    to be unique: a slot is one RRB of one AP, and enumerate_full and
    build_pruned emit a cluster there at most once. Strict CC2 slots are
    RRB indices that every AP shares, so its keys repeat."""
    configs = (ScenarioConfig(), ScenarioConfig(n_uds=96),
               ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0), density_cpb=500.0),
               ScenarioConfig(n_uds=24, rrbs_per_ap=1, n_mecs=12))
    pairs = 0
    for base in configs:
        for seed in range(3):
            scn = generate(dataclasses.replace(base, seed=seed))
            for graph in (enumerate_full(scn), build_pruned(scn)):
                assert pair_slot_repeats(graph) == 0
                pairs += int(np.count_nonzero(graph.u2 >= 0))
            if base == ScenarioConfig():
                assert pair_slot_repeats(enumerate_full(scn, strict_cc2=True)) > 0
    assert pairs > 10_000


def with_deadlines(scn):
    """scn with per-UD deadlines of 5, 10 or 20 ms, fixed by the UD id."""
    return dataclasses.replace(scn, devices=tuple(
        dataclasses.replace(d, task=dataclasses.replace(d.task, deadline_s=(0.005, 0.01, 0.02)[d.id % 3]))
        for d in scn.devices))


# topologies the candidate cache is checked on; the last one's seeds sit
# on the load budget, so they take no partner
CACHE_TOPOLOGIES = (
    lambda: generate(ScenarioConfig(n_uds=12, seed=3)),
    lambda: generate(ScenarioConfig(n_uds=30, rrbs_per_ap=4, ap_coverage_m=1000.0, seed=4)),
    lambda: with_deadlines(generate(ScenarioConfig(
        n_uds=40, task_size_range_bits=(100.0, 2000.0), density_cpb=300.0, seed=5))),
    lambda: generate(ScenarioConfig(n_uds=6, n_aps=3, f_loc_max_cps=3e7,
                                    task_size_range_bits=(1000.0, 1000.0), seed=10)),
)
GRAPH_COLUMNS = ("u1", "u2", "rrb_arr", "ap_arr", "slot", "weights",
                 "_p1", "_p2", "_r1", "_r2", "_obj")


def assert_same_graph(got, want):
    """Every vertex column equal bit for bit, dtypes included."""
    for name in GRAPH_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.strict_cc2 == want.strict_cc2


def candidate_graphs(scenario_of):
    """Under both CC2 rules: the full enumeration on all RRBs, on [0] and on
    [1, 2], then the pruned graph; each built on a scenario_of() call."""
    for strict in (False, True):
        for rrbs in (None, [0], [1, 2]):
            yield enumerate_full(scenario_of(), strict_cc2=strict, rrbs=rrbs)
        yield build_pruned(scenario_of(), strict_cc2=strict)


def solved_at_caps(scn, cells, strict):
    """The graph over the feasible clusters of cells, _cell_columns'
    columns, weighed at the AP caps, as enumerate_full and build_pruned
    build it from their cached cells."""
    return _kept(scn, *_solve(scn, cells, strict), _caps(scn))


def reference_graphs(scenario_of):
    """candidate_graphs' graphs from the reference cell builders."""
    for strict in (False, True):
        for rrbs in (None, [0], [1, 2]):
            scn = scenario_of()
            yield solved_at_caps(scn, _cell_columns(scn, *oracles.full_cells_by_ap(scn, rrbs)),
                                 strict)
        scn = scenario_of()
        yield solved_at_caps(scn, _cell_columns(scn, *oracles.pruned_cells_by_scan(scn)), strict)


def test_cached_candidates_match_a_fresh_scenario_on_every_trial():
    """One topology serves every fading trial through with_channel copies.
    Each graph built on them equals, bit for bit, the one a freshly
    generated scenario builds cold on the same channel, and the one the
    reference cell builders give."""
    graphs = 0
    for topology in CACHE_TOPOLOGIES:
        scn = topology()
        for trial in range(4):
            channel = realize_channels(scn, trial)
            fresh = topology()
            cold = list(candidate_graphs(lambda: dataclasses.replace(fresh, channel=channel)))
            assert fresh._topology_cache == {}
            reference = list(reference_graphs(lambda: dataclasses.replace(fresh, channel=channel)))
            for got, want, ref in zip(candidate_graphs(lambda: with_channel(scn, channel)),
                                      cold, reference):
                assert_same_graph(got, want)
                assert_same_graph(got, ref)
                graphs += 1
        assert set(scn._topology_cache) == {
            ("full_cells", None), ("full_cells", (0,)), ("full_cells", (1, 2)),
            "power_cap", "pruned_cells", "task_columns"}
    assert graphs == len(CACHE_TOPOLOGIES) * 4 * 8


def test_with_channel_copies_reuse_the_cache_entries():
    scn = generate(ScenarioConfig(n_uds=12, seed=3))
    first = with_channel(scn, realize_channels(scn, 1))
    assert first._topology_cache is scn._topology_cache
    enumerate_full(first)
    enumerate_full(first, rrbs=[0])
    build_pruned(first)
    entries = dict(scn._topology_cache)
    second = with_channel(first, realize_channels(scn, 2))
    enumerate_full(second, strict_cc2=True, rrbs=[0])
    enumerate_full(second, rrbs=np.zeros(1, dtype=np.int32))    # the same RRB list
    build_pruned(second, strict_cc2=True)
    assert second._topology_cache is scn._topology_cache
    assert scn._topology_cache.keys() == entries.keys()
    assert all(scn._topology_cache[key] is value for key, value in entries.items())


def test_cached_columns_stay_read_only_and_unchanged_by_every_scheme():
    """Full-graph schemes hold the cached cell columns themselves, so after
    all five schemes run on several channels, under both CC2 rules and
    both orderings, every cached array is still read-only and keeps its
    bytes."""
    scn = generate(ScenarioConfig(n_uds=30, task_size_range_bits=(100.0, 2000.0),
                                  density_cpb=300.0, seed=4))
    enumerate_full(scn)
    enumerate_full(scn, rrbs=[0])
    build_pruned(scn)
    before = {key: [a.tobytes() for a in arrays] for key, arrays in scn._topology_cache.items()}
    for trial in range(2):
        copy = with_channel(scn, realize_channels(scn, trial))
        for strict in (False, True):
            for ordering in ("original", "modified"):
                for scheme in SCHEMES:
                    run_scheme(copy, scheme, seed=trial, strict_cc2=strict,
                               mwis_ordering=ordering)
    assert scn._topology_cache.keys() == before.keys()
    for key, arrays in scn._topology_cache.items():
        assert not any(a.flags.writeable for a in arrays), key
        assert [a.tobytes() for a in arrays] == before[key], key


def test_replaced_coverage_or_devices_recompute_the_cache():
    scn = generate(ScenarioConfig(n_uds=12, seed=3))
    enumerate_full(scn)
    build_pruned(scn)
    coverage = {**scn.coverage, 0: frozenset(), 1: frozenset(range(12))}
    heavy = dataclasses.replace(scn, devices=tuple(
        dataclasses.replace(d, task=dataclasses.replace(d.task, density_cpb=1000.0 + 100.0 * d.id))
        for d in scn.devices))
    for changed in (dataclasses.replace(scn, coverage=coverage), heavy, with_deadlines(scn)):
        assert changed._topology_cache == {}
        for got, want in zip(candidate_graphs(lambda: changed),
                             reference_graphs(lambda: dataclasses.replace(changed))):
            assert_same_graph(got, want)
    moved = enumerate_full(dataclasses.replace(scn, coverage=coverage))
    assert 0 not in moved.ap_arr.tolist()
    assert set(moved.u1[moved.ap_arr == 1].tolist()) == set(range(12))
    assert not np.array_equal(build_pruned(heavy).weights, build_pruned(scn).weights)


def test_a_second_channel_gets_its_own_graph():
    config = ScenarioConfig(n_uds=24, seed=6)
    scn = generate(config)
    channel_a, channel_b = realize_channels(scn, 1), realize_channels(scn, 2)
    for build in (enumerate_full, build_pruned):
        on_a = build(with_channel(scn, channel_a))
        on_b = build(with_channel(scn, channel_b))
        assert_same_graph(on_b, build(with_channel(generate(config), channel_b)))
        assert not np.array_equal(on_a.weights, on_b.weights)


def old_path_graphs(scn, strict):
    """(built graph, its old-path reference) pairs on one scenario: the full
    enumeration on every RRB and on [0], the pruned graph, and the full
    graph weighed by _kept at half the caps with an all-true mask, the
    singleton mask and an every-other-vertex mask."""
    half = {ap.id: ap.f_loc_max_cps / 2 for ap in scn.aps}
    full = enumerate_full(scn, strict_cc2=strict)
    full_ref = oracles.solve_cells_by_copy(scn, oracles.full_cells_by_ap(scn), strict)
    yield full, full_ref
    yield (enumerate_full(scn, strict_cc2=strict, rrbs=[0]),
           oracles.solve_cells_by_copy(scn, oracles.full_cells_by_ap(scn, [0]), strict))
    yield (build_pruned(scn, strict_cc2=strict),
           oracles.solve_cells_by_copy(scn, oracles.pruned_cells_by_scan(scn), strict))
    every_other = np.arange(len(full)) % 2 == 0
    for keep in (np.ones(len(full), bool), full.u2 < 0, every_other):
        yield (_kept(scn, copy.copy(full), keep, half),
               oracles.reweighed_by_copy(scn, full_ref, keep, half))


def test_graph_columns_match_the_copying_path():
    """Every column of the enumerated, pruned and _kept graphs equals,
    bit for bit and in dtype, what the path that gathers with three
    indices, solves one array per step and copies every filtered column
    gives; one topology has cells that miss the rate floor."""
    graphs = 0
    for topology in CACHE_TOPOLOGIES + (
            lambda: generate(ScenarioConfig(n_uds=24, rate_threshold_bps=2e7, seed=8)),):
        base = topology()
        for trial in range(2):
            scn = with_channel(base, realize_channels(base, trial))
            for strict in (False, True):
                for got, want in old_path_graphs(scn, strict):
                    assert_same_graph(got, want)
                    graphs += 1
    assert graphs == (len(CACHE_TOPOLOGIES) + 1) * 2 * 2 * 6


def test_reweighing_copies_and_leaves_the_source_alone():
    """_gathered copies under every selection, every position too, and
    _kept weighs such a copy, or its own copy under a mask that drops
    vertices: the source's columns share no memory with the copy's, and
    the source keeps its weights."""
    scn = generate(ScenarioConfig(n_uds=12, seed=3))
    full = enumerate_full(scn)
    weights = full.weights.copy()
    half = {ap.id: ap.f_loc_max_cps / 2 for ap in scn.aps}
    for keep in (np.ones(len(full), bool), full.u2 < 0):
        source = _gathered(full, np.arange(len(full))) if keep.all() else full
        got = _kept(scn, source, keep, half)
        for name in GRAPH_COLUMNS:
            column = getattr(full, name)
            assert not np.shares_memory(getattr(got, name), column), name
        assert full.weights.tobytes() == weights.tobytes()
        assert got.weights.tobytes() != weights[keep].tobytes()


def test_kept_weighs_in_place_only_when_every_vertex_stays():
    """_kept hands back the solved graph itself, weighed in place, when its
    mask keeps every vertex, and a gathered copy otherwise; either way
    every column equals the copying reference's."""
    scn = generate(ScenarioConfig(n_uds=12, seed=3))
    half = {ap.id: ap.f_loc_max_cps / 2 for ap in scn.aps}
    cells = _cell_columns(scn, *oracles.full_cells_by_ap(scn))
    for every in (True, False):
        solved, _ = _solve(scn, cells, False)
        keep = np.ones(len(solved), bool) if every else solved.u2 < 0
        want = oracles.reweighed_by_copy(scn, solved, keep, half)
        got = _kept(scn, solved, keep, half)
        assert (got is solved) == every
        assert_same_graph(got, want)


def test_cells_outside_the_channel_gains_are_refused():
    """The flat gain index would silently read another UD's row for an AP
    or RRB past the gains' shape, or the appended NaN for a UD past it, so
    such cells raise when their columns are built, as indexing the
    (N, M, Z) array itself does; so does a channel whose gains have
    another shape than the one the indices were built for."""
    scn = generate(ScenarioConfig(n_uds=6, n_aps=3, rrbs_per_ap=2, seed=1))
    col = lambda *v: np.array(v, dtype=np.int64)
    for u, ap, rrb in ((0, 3, 0), (0, 0, 2), (0, -1, 0), (0, 0, -1), (6, 0, 0), (-1, 0, 0)):
        with pytest.raises(IndexError):
            _cell_columns(scn, col(u, 1), col(-1, 2), col(0, ap), col(0, rrb))
    cells = _cell_columns(scn, col(0, 1), col(-1, 2), col(0, 2), col(0, 1))
    assert len(solved_at_caps(scn, cells, False)) <= 2
    # the cached indices are those of the scenario's (N, M, Z) gains
    narrow = dataclasses.replace(scn.channel, gain_ud_rrb=scn.channel.gain_ud_rrb[:, :, :1])
    for build in (enumerate_full, build_pruned):
        with pytest.raises(ValueError, match="do not fit"):
            build(with_channel(scn, narrow))


def test_devices_with_different_power_caps_are_refused():
    """The closed form solves every cluster at one power cap, so a scenario
    whose UDs' caps differ is refused, naming both caps, instead of
    scheduling UDs above their own cap."""
    scn = generate(ScenarioConfig(seed=3))
    p_max = scn.devices[0].p_max_w
    devices = tuple(dataclasses.replace(d, p_max_w=p_max / 10) if d.id % 2 else d
                    for d in scn.devices)
    mixed = dataclasses.replace(scn, devices=devices)
    for build in (enumerate_full, build_pruned):
        with pytest.raises(ValueError, match=f"{p_max / 10!r}.*{p_max!r}"):
            build(mixed)
    for scheme in ("joint", "random"):
        with pytest.raises(ValueError, match="power cap"):
            run_scheme(mixed, scheme)
    # one common cap, whatever its value, is solved at that cap
    low = dataclasses.replace(scn, devices=tuple(dataclasses.replace(d, p_max_w=p_max / 10)
                                                 for d in scn.devices))
    assert np.all(enumerate_full(low)._p1 <= p_max / 10)


def test_full_cell_count_is_the_enumerated_count():
    """full_cell_count, read from the coverage alone, is the number of
    cells the full enumeration builds, for every RRB and for RRB lists."""
    checked = 0
    for cfg in (ScenarioConfig(), ScenarioConfig(n_uds=6, n_aps=3, rrbs_per_ap=2),
                ScenarioConfig(n_uds=40, rrbs_per_ap=1, seed=5),
                ScenarioConfig(n_uds=30, ap_coverage_m=300.0, seed=2)):
        scn = generate(cfg)
        for rrbs in (None, (0,), (0, 0)):
            if rrbs and max(rrbs) >= cfg.rrbs_per_ap:
                continue
            count = full_cell_count(scn, rrbs)
            assert count == len(oracles.full_cells_by_ap(scn, rrbs)[0])
            assert count == len(_cached(scn, ("full_cells", rrbs),
                                        lambda s: _full_cells(s, rrbs))[0])
            checked += 1
    assert checked == 12


def test_full_cells_past_the_budget_are_refused(monkeypatch):
    """Under a budget below a scenario's full candidate cells, enumerating
    them raises a ConfigError naming n_uds and the estimate; a budget at
    RRB 0's cells admits those alone, and the pruned cells never count."""
    scn = generate(ScenarioConfig())
    one_rrb = full_cell_count(scn, (0,))
    monkeypatch.setattr(graph_module, "CELL_BUDGET_BYTES", one_rrb * graph_module.CELL_BYTES)
    count = full_cell_count(scn)
    message = f"n_uds=24 gives {count} full candidate cells, about {count * graph_module.CELL_BYTES}"
    with pytest.raises(ConfigError, match=message):
        _full_cells(scn)
    for scheme in ("joint", "local", "random"):
        with pytest.raises(ConfigError, match="n_uds=24"):
            run_scheme(generate(ScenarioConfig()), scheme)
    for scheme in ("pruning", "all_offload"):
        run_scheme(generate(ScenarioConfig()), scheme)
