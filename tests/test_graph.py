"""Conflict graph construction: vertices, edges, weights, pruning."""

import numpy as np
import pytest

from nomec import (ConflictGraph, NomaAssociation, PowerConstraints,
                   ScenarioConfig, build_full, build_pruned, conflicts,
                   enumerate_full, generate, modified_weight,
                   solve_cluster_power, vertex_weight)
from nomec.graph import from_associations, local_load_cps, pair_load_cps
from nomec.power import ClusterPowerSolution
import oracles


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
            graph = from_associations(verts, strict_cc2=strict)
            mat = graph.adjacency_matrix()
            assert mat.shape == (40, 40)
            assert not mat.diagonal().any()
            for i in range(40):
                for j in range(40):
                    want = i != j and conflicts(verts[i], verts[j], strict)
                    assert mat[i, j] == want
                    assert graph.adjacent(i, j) == want


def test_neighbor_views_consistent():
    rng = np.random.default_rng(5)
    graph = from_associations(random_assocs(rng, 30))
    mat = graph.adjacency_matrix()
    for i in range(len(graph)):
        assert (graph.neighbor_mask(i) == mat[i]).all()
        assert list(graph.neighbors(i)) == list(np.flatnonzero(mat[i]))
    assert (mat == mat.T).all()


def test_graph_lookup_and_dump():
    verts = [assoc((0,), 0, 0, 1.0), assoc((1, 2), 1, 0, 2.0)]
    graph = from_associations(verts)
    assert len(graph) == 2 and graph.n_vertices == 2
    assert graph.index_of(verts[1]) == 1
    assert graph.vertex(0).uds == (0,)
    text = graph.dump_text()
    assert "vertex 0 ap=0 rrb=0 uds=0" in text
    assert text.endswith("\n")


def test_empty_graph():
    graph = from_associations(())
    assert len(graph) == 0
    assert graph.adjacency_matrix().shape == (0, 0)
    assert graph.dump_text() == ""


def test_vertex_weight_formula():
    scn = generate(ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, seed=1))
    d0, d1 = scn.devices[0], scn.devices[1]
    sol = ClusterPowerSolution((0.3, 0.2), (2e6, 1e6), 1.0, True)
    a = NomaAssociation((0, 1), 0, 0, sol, 0.0)
    f = 4e7
    got = vertex_weight(a, scn, f)
    want = oracles.vertex_weight(
        [(d0.task.size_bits, d0.task.density_cpb, 2e6),
         (d1.task.size_bits, d1.task.density_cpb, 1e6)],
        f, scn.weights.alpha_cpu)
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        vertex_weight(a, scn, 0.0)
    bad = NomaAssociation((0, 1), 0, 0,
                          ClusterPowerSolution((0.3, 0.2), (2e6, 0.0), 1.0, True), 0.0)
    with pytest.raises(ValueError):
        vertex_weight(bad, scn, f)


def test_modified_weight_example():
    # weight 2 with non-adjacent weights {3, 5} gives 2 * 8 = 16
    verts = [assoc((0,), 0, 0, 2.0), assoc((1,), 0, 1, 3.0), assoc((2,), 0, 2, 5.0)]
    graph = from_associations(verts)
    assert modified_weight(0, graph) == pytest.approx(16.0)
    adj = graph.adjacency_matrix()
    for i in range(3):
        want = oracles.modified_weight(i, adj.tolist(), [2.0, 3.0, 5.0])
        assert modified_weight(i, graph) == pytest.approx(want)


def test_build_full_unconstrained_count():
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, rrbs_per_ap=2,
                         ap_coverage_m=4000.0, rate_threshold_bps=0.0, seed=2)
    graph = build_full(generate(cfg))
    assert len(graph) == oracles.full_vertex_count(6, 3, 2)
    assert graph.kind == "full"


def test_build_full_weights_match_scalar_solver():
    """Dual route: every batched vertex reproduces the scalar per-cluster
    solution and the direct weight formula."""
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, rrbs_per_ap=2, seed=3)
    scn = generate(cfg)
    graph = build_full(scn)
    cons = PowerConstraints(p_max_w=scn.devices[0].p_max_w,
                            rate_threshold_bps=cfg.rate_threshold_bps)
    assert len(graph) > 0
    for i in range(len(graph)):
        v = graph.vertex(i)
        members = [(u, scn.channel.gain_ud_rrb[(u, v.ap, v.rrb)]) for u in v.uds]
        sol = solve_cluster_power(members, scn.channel, cons)
        assert sol.feasible
        assert v.power.powers == pytest.approx(sol.powers, rel=1e-12)
        assert v.power.rates == pytest.approx(sol.rates, rel=1e-12)
        f_ap = scn.aps[v.ap].f_loc_max_cps
        assert v.weight == pytest.approx(vertex_weight(v, scn, f_ap), rel=1e-12)
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
    sub = build_full(scn, uds={0, 1, 2}, aps={1, 3}, rrbs=[0])
    for v in sub.vertices:
        assert set(v.uds) <= {0, 1, 2}
        assert v.ap in {1, 3}
        assert v.rrb == 0
    pairs_off = build_full(scn, rrbs=[1])
    assert all(v.rrb == 1 for v in pairs_off.vertices)


def test_build_full_f_loc_forms():
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, seed=6)
    scn = generate(cfg)
    g_default = build_full(scn)
    g_scalar = build_full(scn, f_loc=scn.aps[0].f_loc_max_cps)
    assert list(g_default.weights) == list(g_scalar.weights)
    half = {ap.id: ap.f_loc_max_cps / 2 for ap in scn.aps}
    g_dict = build_full(scn, f_loc=half)
    assert len(g_dict) == len(g_default)
    assert list(g_dict.weights) != list(g_default.weights)


def test_load_helpers():
    scn = generate(ScenarioConfig(n_uds=4, n_aps=2, n_mecs=2, seed=7))
    t0 = scn.devices[0].task
    t1 = scn.devices[1].task
    assert local_load_cps(t0) == pytest.approx(t0.cycles / t0.deadline_s, rel=1e-12)
    want = (t0.cycles + t1.cycles) / (2.0 * min(t0.deadline_s, t1.deadline_s))
    assert pair_load_cps(t0, t1) == pytest.approx(want, rel=1e-12)


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
        assert pruned.kind == "pruned"


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
                assert pair_load_cps(ta, tb) <= budget[ap_id] * (1.0 + 1e-9)
        if singles:
            load = local_load_cps(scn.devices[singles[0].uds[0]].task)
            assert load <= budget[ap_id] * (1.0 + 1e-9)


def test_build_pruned_threshold_seed_is_singleton_only():
    # every UD load sits exactly on the per-slot budget, so the pruned
    # graph contains singletons only
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, f_loc_max_cps=3e7,
                         task_size_range_bits=(1000.0, 1000.0), seed=10)
    scn = generate(cfg)
    budget = 3e7 / 3
    for d in scn.devices:
        assert local_load_cps(d.task) == pytest.approx(budget, rel=1e-12)
    pruned = build_pruned(scn)
    assert len(pruned) > 0
    assert all(len(v.uds) == 1 for v in pruned.vertices)


def test_build_pruned_empty_when_loads_violate():
    cfg = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, density_cpb=8000.0, seed=11)
    scn = generate(cfg)
    assert len(build_pruned(scn)) == 0


def test_custom_graph_lazy_vertex_access():
    cfg = ScenarioConfig(n_uds=5, n_aps=3, n_mecs=2, seed=12)
    scn = generate(cfg)
    graph = build_full(scn)
    if len(graph) == 0:
        pytest.skip("no feasible vertices for this seed")
    v = graph.vertex(0)
    assert isinstance(v, NomaAssociation)
    assert graph.vertices[0].key == v.key
    assert ConflictGraph(graph.vertices).n_vertices == len(graph)


def test_enumerate_full_matches_build_full_without_edges():
    for strict in (False, True):
        scn = generate(ScenarioConfig(n_uds=12, seed=13))
        half = {ap.id: ap.f_loc_max_cps / 2 for ap in scn.aps}
        for kwargs in ({}, {"f_loc": half, "uds": set(range(8)), "aps": {0, 2, 5}},
                       {"rrbs": [0], "include_singletons": False}):
            lazy = enumerate_full(scn, strict_cc2=strict, **kwargs)
            full = build_full(scn, strict_cc2=strict, **kwargs)
            assert lazy._adj_bits is None and full._adj_bits is not None
            for name in ("u1", "u2", "rrb_arr", "ap_arr", "weights", "slot"):
                assert np.array_equal(getattr(lazy, name), getattr(full, name))
            assert [v.power for v in lazy.vertices] == [v.power for v in full.vertices]
            assert np.array_equal(lazy.adj_bits, full.adj_bits)
            assert lazy.kind == full.kind == "full"


def test_pruned_adjacency_is_lazy():
    scn = generate(ScenarioConfig(n_uds=12, seed=14))
    pruned = build_pruned(scn)
    assert len(pruned) > 0 and pruned._adj_bits is None
    mat = pruned.adjacency_matrix()
    verts = pruned.vertices
    for i in range(len(verts)):
        for j in range(len(verts)):
            assert mat[i, j] == (i != j and conflicts(verts[i], verts[j]))
