"""Minimum-weight maximal independent set search, against the exact
search and the validity checks in tests/oracles.py."""

import copy
import math

import numpy as np
import pytest

from nomec import (ConflictGraph, NomaAssociation, ScenarioConfig, build_pruned,
                   enumerate_full, generate, greedy_min_wis, modified_ranks,
                   random_maximal_is)
from nomec.graph import _kept
from nomec import mwis
from nomec.mwis import _scan
import oracles
from oracles import (adjacency_matrix, exact_min_wis, graph_of, is_independent, is_maximal,
                     picks_in_order)


def assoc(uds, rrb=0, ap=0, weight=1.0):
    return NomaAssociation(tuple(uds), rrb, ap, None, weight)


def star_graph():
    # vertex 0 conflicts with every leaf; leaves are pairwise compatible
    center = assoc((0, 1), rrb=0, ap=0, weight=1.1)
    leaves = [assoc((2,), rrb=0, ap=0, weight=1.0),
              assoc((0,), rrb=0, ap=1, weight=1.0),
              assoc((1,), rrb=0, ap=2, weight=1.0)]
    return graph_of([center] + leaves)


def random_graph(rng, n_verts, n_uds=6, n_aps=2, n_rrbs=2, weights=None, strict=False):
    """Distinct random vertices; weights[i], if given, is vertex i's weight."""
    out = []
    seen = set()
    while len(out) < n_verts:
        if rng.random() < 0.5:
            uds = (int(rng.integers(n_uds)),)
        else:
            pair = rng.choice(n_uds, size=2, replace=False)
            uds = tuple(sorted(int(u) for u in pair))
        key = (uds, int(rng.integers(n_rrbs)), int(rng.integers(n_aps)))
        if key in seen:
            continue
        seen.add(key)
        weight = rng.uniform(0.1, 5.0) if weights is None else weights[len(out)]
        out.append(NomaAssociation(key[0], key[1], key[2], None, float(weight)))
    return graph_of(out, strict_cc2=strict)


def test_greedy_takes_lightest_survivor():
    graph = star_graph()
    result = greedy_min_wis(graph)
    assert set(result.indices) == {1, 2, 3}
    assert result.total_weight == pytest.approx(3.0)
    assert is_independent(graph, result.indices)
    assert is_maximal(graph, result.indices)


def test_exact_beats_greedy_on_star():
    graph = star_graph()
    exact = exact_min_wis(graph)
    assert exact.indices == (0,)
    assert exact.total_weight == pytest.approx(1.1)
    assert exact.total_weight < greedy_min_wis(graph).total_weight


def test_greedy_tie_break_is_deterministic():
    # equal weights: the (ap, rrb, uds) order decides, so ap 0 wins
    verts = [assoc((0, 1), 0, 2, 1.0), assoc((0, 1), 0, 0, 1.0),
             assoc((0, 1), 0, 1, 1.0)]
    graph = graph_of(verts)
    assert greedy_min_wis(graph).indices == (1,)


def test_greedy_validity_seeded():
    rng = np.random.default_rng(11)
    for _ in range(40):
        graph = random_graph(rng, int(rng.integers(5, 35)))
        for ordering in ("original", "modified"):
            result = greedy_min_wis(graph, ordering=ordering)
            assert is_independent(graph, result.indices)
            assert is_maximal(graph, result.indices)
            assert result.total_weight == pytest.approx(
                sum(graph.weights[i] for i in result.indices), rel=1e-12)


def test_exact_matches_subset_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        graph = random_graph(rng, int(rng.integers(4, 13)))
        exact = exact_min_wis(graph)
        assert is_independent(graph, exact.indices)
        assert is_maximal(graph, exact.indices)
        adj = adjacency_matrix(graph).tolist()
        weight, _ = oracles.min_weight_maximal_independent_set(
            adj, list(graph.weights))
        assert exact.total_weight == pytest.approx(weight, rel=1e-12)


def test_exact_never_above_greedy():
    rng = np.random.default_rng(17)
    for _ in range(30):
        graph = random_graph(rng, int(rng.integers(4, 16)))
        exact = exact_min_wis(graph)
        greedy = greedy_min_wis(graph)
        assert exact.total_weight <= greedy.total_weight * (1.0 + 1e-12)


def test_exact_size_limit():
    rng = np.random.default_rng(19)
    graph = random_graph(rng, 26, n_uds=12, n_aps=4, n_rrbs=3)
    with pytest.raises(ValueError):
        exact_min_wis(graph)


def test_random_maximal_is_seeded():
    rng = np.random.default_rng(23)
    graph = random_graph(rng, 25)
    a = random_maximal_is(graph, seed=5)
    b = random_maximal_is(graph, seed=5)
    assert a.indices == b.indices
    assert is_independent(graph, a.indices)
    assert is_maximal(graph, a.indices)
    others = {random_maximal_is(graph, seed=s).indices for s in range(20)}
    assert len(others) > 1


def test_modified_ordering_can_differ():
    rng = np.random.default_rng(29)
    differ = False
    for _ in range(40):
        graph = random_graph(rng, int(rng.integers(8, 25)))
        plain = greedy_min_wis(graph, ordering="original")
        mod = greedy_min_wis(graph, ordering="modified")
        assert is_maximal(graph, mod.indices)
        if plain.indices != mod.indices:
            differ = True
    assert differ


def test_ordering_validation_and_empty():
    graph = graph_of(())
    assert greedy_min_wis(graph).indices == ()
    assert exact_min_wis(graph).total_weight == 0.0
    assert random_maximal_is(graph, seed=0).indices == ()
    assert greedy_min_wis(graph, "modified").indices == ()
    strict = graph_of((), strict_cc2=True)
    assert greedy_min_wis(strict, "modified").indices == ()
    assert random_maximal_is(strict, seed=3).indices == ()
    # no pairs: the pair keys are empty, the UD and slot keys are not
    for strict in (False, True):
        singles = graph_of([assoc((0,), 0, 0, 1.0), assoc((1,), 0, 1, 2.0),
                            assoc((1,), 1, 0, 0.5)], strict_cc2=strict)
        assert np.array_equal(modified_ranks(singles),
                              oracles.modified_ranks_by_unique(singles))
        # ranks 2.5, 2, 0.5; strict CC2 puts vertices 0 and 1 on one slot: 0.5, 0, 0.5
        assert greedy_min_wis(singles, "modified").indices == ((1,) if strict else (2, 0))
    one = graph_of([assoc((4, 9), rrb=2, ap=1, weight=0.25)])
    for result in (greedy_min_wis(one), greedy_min_wis(one, "modified"),
                   random_maximal_is(one, seed=0)):
        assert result.indices == (0,) and result.total_weight == 0.25
    some = graph_of([assoc((0,), 0, 0, 1.0)])
    with pytest.raises(ValueError):
        greedy_min_wis(some, ordering="lightest")


def test_total_weight_adds_the_picks_left_to_right():
    """total_weight is the picks' weights added one at a time in pick
    order, bit for bit, on every Python; on 0.1, 0.2 and 0.3 that is
    0.6000000000000001, where a compensated sum gives 0.6."""
    weights = [0.3, 0.1, 0.2]
    graph = graph_of([assoc((u,), 0, u, w) for u, w in enumerate(weights)])
    assert math.fsum(weights) == 0.6
    for result in (greedy_min_wis(graph), greedy_min_wis(graph, "modified"),
                   random_maximal_is(graph, seed=3)):
        total = 0.0
        for i in result.indices:
            total += weights[i]
        assert sorted(result.indices) == [0, 1, 2]
        assert type(result.total_weight) is float and result.total_weight == total
    assert greedy_min_wis(graph).total_weight == 0.6000000000000001


# Dense route: the packed-bit adjacency the incidence passes replace. The
# neighbour-mask loop below is the greedy as it ran on explicit edges.

def dense_greedy(mat, order):
    alive = np.ones(len(mat), dtype=bool)
    picked = []
    for i in order:
        if alive[i]:
            picked.append(int(i))
            alive &= ~mat[i]
            alive[i] = False
    return tuple(picked)


def dense_order(graph, rank):
    return np.lexsort((graph.u2, graph.u1, graph.rrb_arr, graph.ap_arr, rank))


def dense_modified_ranks(graph, mat):
    w = graph.weights
    adj_sum = np.array([w[row].sum() for row in mat])
    return w * (w.sum() - w - adj_sum)


def dense_is_independent(mat, indices):
    idx = sorted(set(indices))
    return not mat[np.ix_(idx, idx)].any()


def dense_is_maximal(mat, indices):
    covered = np.zeros(len(mat), dtype=bool)
    for i in indices:
        covered |= mat[i]
        covered[i] = True
    return bool(covered.all())


def scenario_corpus():
    for n_uds in (8, 24, 96):
        scn = generate(ScenarioConfig(n_uds=n_uds, seed=31 + n_uds))
        for strict in (False, True):
            yield n_uds, enumerate_full(scn, strict_cc2=strict)


def test_incidence_picks_match_dense_route():
    checked = 0
    for n_uds, graph in scenario_corpus():
        mat = adjacency_matrix(graph)
        w = graph.weights
        assert greedy_min_wis(graph, "original").indices == \
            dense_greedy(mat, dense_order(graph, w))
        modified = dense_modified_ranks(graph, mat)
        assert greedy_min_wis(graph, "modified").indices == \
            dense_greedy(mat, dense_order(graph, modified))
        for seed in (0, 1, 2):
            order = np.random.default_rng(seed).permutation(len(graph))
            assert random_maximal_is(graph, seed).indices == dense_greedy(mat, order)
        del mat
        checked += 1
    assert checked == 6


def test_incidence_picks_match_dense_route_on_custom_graphs():
    rng = np.random.default_rng(37)
    for _ in range(40):
        graph = random_graph(rng, int(rng.integers(1, 40)))
        mat = adjacency_matrix(graph)
        assert greedy_min_wis(graph).indices == \
            dense_greedy(mat, dense_order(graph, graph.weights))
        assert greedy_min_wis(graph, "modified").indices == \
            dense_greedy(mat, dense_order(graph, dense_modified_ranks(graph, mat)))
        order = np.random.default_rng(5).permutation(len(graph))
        assert random_maximal_is(graph, 5).indices == dense_greedy(mat, order)


def test_modified_ranks_match_oracle():
    graphs = [g for n_uds, g in scenario_corpus() if n_uds <= 24]
    rng = np.random.default_rng(41)
    graphs += [random_graph(rng, int(rng.integers(1, 30))) for _ in range(20)]
    for graph in graphs:
        adj = adjacency_matrix(graph).tolist()
        weights = list(graph.weights)
        want = [oracles.modified_weight(i, adj, weights) for i in range(len(graph))]
        assert modified_ranks(graph) == pytest.approx(want, rel=1e-12, abs=0.0)


def bit_identity_corpus():
    """Full and pruned graphs at n_uds 1/8/24/96 in both CC2 modes, each
    full graph also weighed by _kept under random masks at random per-AP
    f_loc."""
    rng = np.random.default_rng(59)
    for n_uds in (1, 8, 24, 96):
        scn = generate(ScenarioConfig(n_uds=n_uds, seed=59 + n_uds))
        for strict in (False, True):
            full = enumerate_full(scn, strict_cc2=strict)
            yield full
            yield build_pruned(scn, strict_cc2=strict)
            for _ in range(3):
                keep = rng.random(len(full)) < rng.uniform(0.1, 1.0)
                f_loc = {ap.id: float(rng.uniform(0.2, 1.0)) * ap.f_loc_max_cps
                         for ap in scn.aps}
                yield _kept(scn, copy.copy(full), keep, f_loc)


def singleton_rows(graph):
    """The singleton vertices of graph as a graph of their own, and their
    positions in graph."""
    rows = np.flatnonzero(graph.u2 < 0)
    cols = (graph.u1, graph.u2, graph.rrb_arr, graph.ap_arr, graph.weights,
            graph._p1, graph._p2, graph._r1, graph._r2, graph._obj)
    return ConflictGraph(*(c[rows] for c in cols), strict_cc2=graph.strict_cc2), rows


def stage1_corpus(rng):
    """Full and pruned graphs at n_uds 8/24/96 in both CC2 modes, each full
    graph also weighed by _kept at random per-AP f_loc after dropping
    random UDs, APs and RRB indices, the way stage 1 drops committed
    clusters."""
    for n_uds in (8, 24, 96):
        scn = generate(ScenarioConfig(n_uds=n_uds, seed=67 + n_uds))
        for strict in (False, True):
            full = enumerate_full(scn, strict_cc2=strict)
            yield full
            yield build_pruned(scn, strict_cc2=strict)
            for _ in range(4):
                active_ud = np.append(rng.random(n_uds) < rng.uniform(0.5, 1.0), True)
                active_ap = rng.random(len(scn.aps)) < rng.uniform(0.5, 1.0)
                # only strict CC2 drops the RRB indices of committed clusters
                active_rrb = (rng.random(scn.config.rrbs_per_ap) < rng.uniform(0.5, 1.0)
                              if strict else np.ones(scn.config.rrbs_per_ap, bool))
                keep = (active_ud[full.u1] & active_ud[full.u2] & active_ap[full.ap_arr]
                        & active_rrb[full.rrb_arr])
                f_loc = {ap.id: float(rng.uniform(0.05, 1.0)) * ap.f_loc_max_cps
                         for ap in scn.aps}
                yield _kept(scn, copy.copy(full), keep, f_loc)


def test_original_greedy_on_the_singletons_picks_what_it_picks_on_the_whole_graph():
    """A pair is heavier than its member singletons on its slot and blocked
    by each, so the lightest-first greedy never takes one: on a graph's
    singleton rows it picks the same clusters, in the same order."""
    rng = np.random.default_rng(67)
    checked = pairs = 0
    for graph in stage1_corpus(rng):
        whole = greedy_min_wis(graph).indices
        alone, rows = singleton_rows(graph)
        assert rows[list(greedy_min_wis(alone).indices)].tolist() == list(whole)
        checked += 1
        pairs += int(np.count_nonzero(graph.u2 >= 0))
    assert checked == 36 and pairs > 50_000


def test_modified_ranks_bit_identical_to_unique_route():
    checked = 0
    for graph in bit_identity_corpus():
        assert np.array_equal(modified_ranks(graph),
                              oracles.modified_ranks_by_unique(graph))
        checked += 1
    assert checked == 40


def test_independence_and_maximality_match_dense_route():
    rng = np.random.default_rng(43)
    graphs = [random_graph(rng, int(rng.integers(2, 30))) for _ in range(30)]
    graphs += [g for n_uds, g in scenario_corpus() if n_uds == 8]
    outcomes = set()
    for graph in graphs:
        mat = adjacency_matrix(graph)
        n = len(graph)
        picks = list(greedy_min_wis(graph).indices)
        subsets = [picks, picks[:-1], picks + [int(rng.integers(n))], []]
        for _ in range(20):
            size = int(rng.integers(1, min(n, 8) + 1))
            subsets.append([int(i) for i in rng.choice(n, size=size, replace=False)])
        for subset in subsets:
            independent = is_independent(graph, subset)
            maximal = is_maximal(graph, subset)
            assert independent == dense_is_independent(mat, subset)
            assert maximal == dense_is_maximal(mat, subset)
            outcomes.add((independent, maximal))
    # dependent, non-maximal and valid subsets all occurred
    assert {(True, True), (True, False), (False, True), (False, False)} <= outcomes


# Full-order route: tests/oracles.py sorts every vertex and walks the whole
# order, where the package sorts and scans only the prefix it needs.

def assert_matches_oracle(graph, seeds=(0, 1)):
    assert greedy_min_wis(graph).indices == picks_in_order(graph, rank=graph.weights)
    assert greedy_min_wis(graph, "modified").indices == \
        picks_in_order(graph, rank=modified_ranks(graph))
    for seed in seeds:
        order = np.random.default_rng(seed).permutation(len(graph)).tolist()
        assert random_maximal_is(graph, seed).indices == picks_in_order(graph, order)


def test_picks_match_full_order_oracle():
    checked = 0
    for n_uds, graph in scenario_corpus():
        assert_matches_oracle(graph)
        checked += 1
    assert checked == 6


def test_picks_match_full_order_oracle_on_tie_heavy_graphs():
    rng = np.random.default_rng(47)
    for k in range(24):
        n_uds, n_aps, n_rrbs = (int(rng.integers(lo, hi)) for lo, hi in ((20, 200), (1, 10), (1, 30)))
        # at most half of the distinct (uds, rrb, ap) keys
        n = int(rng.integers(100, min(3000, n_uds * (n_uds + 1) // 2 * n_aps * n_rrbs // 2)))
        weights = rng.integers(1, 4, size=n) * 0.5   # three distinct weights
        graph = random_graph(rng, n, n_uds, n_aps, n_rrbs, weights=weights, strict=k % 2 == 1)
        assert_matches_oracle(graph, seeds=(k,))


def test_equal_ranks_across_the_first_chunk_boundary():
    # ranks 0.5 x 100, then 1.0 x 650 across the 512th place, then 2.0 x 300
    rng = np.random.default_rng(53)
    weights = rng.permutation(np.repeat([0.5, 1.0, 2.0], [100, 650, 300]))
    for strict in (False, True):
        graph = random_graph(rng, len(weights), n_uds=1000, n_aps=10, n_rrbs=400,
                             weights=weights, strict=strict)
        picked = greedy_min_wis(graph).indices
        assert picked == picks_in_order(graph, rank=graph.weights)
        # the scan took vertices of the tied run and read past it
        assert {0.5, 1.0, 2.0} <= {float(graph.weights[i]) for i in picked}


def first_call_only(live):
    """live, failing on any call after the first."""
    calls = []

    def once(graph, idx, used):
        if calls:
            raise AssertionError("the scan read past its last possible pick")
        calls.append(idx)
        return live(graph, idx, used)
    return once


def test_scan_stops_when_uds_or_slots_are_used_up(monkeypatch):
    # two UDs over 300 RRBs: both UDs go long before the slots do
    verts = [assoc((u,), rrb=z, ap=0, weight=1.0 + z + u / 2) for z in range(300) for u in (0, 1)]
    by_uds = graph_of(verts)
    # 600 UDs on one RRB index under strict CC2: one slot in all
    by_slots = graph_of([assoc((u,), rrb=0, ap=u % 5, weight=2.0 - u / 1000)
                              for u in range(600)], strict_cc2=True)
    live = mwis._live
    for graph, picks in ((by_uds, 2), (by_slots, 1)):
        want = picks_in_order(graph, rank=graph.weights)
        assert len(want) == picks
        assert greedy_min_wis(graph).indices == want
        order = oracles.greedy_order(graph.weights.tolist(), graph.ap_arr.tolist(),
                                     graph.rrb_arr.tolist(), [(u,) for u in graph.u1.tolist()])
        last = order.index(want[-1]) + 1
        # the first chunk ends at the last pick, and every later chunk is
        # cut by _live before it is read, so a second _live call is a read
        # past the last possible pick
        for parts, rank in (((np.array(order),), None),
                            ((np.arange(len(graph)),), graph.weights)):
            with monkeypatch.context() as m:
                m.setattr(mwis, "_FIRST_CHUNK", last)
                m.setattr(mwis, "_live", first_call_only(live))
                assert _scan(graph, parts, rank).indices == want


# Live-vertex pass: every chunk after the first is cut to the vertices the
# picks so far leave free before it is sorted and scanned. The reference
# reads every chunk whole.

def test_live_pass_picks_what_the_full_read_pass_picks():
    rng = np.random.default_rng(79)
    for k in range(40):
        n = int(rng.integers(520, 2500))
        graph = random_graph(rng, n, n_uds=int(rng.integers(10, 120)), n_aps=int(rng.integers(1, 8)),
                             n_rrbs=int(rng.integers(1, 40)), strict=k % 2 == 1)
        rank = rng.integers(1, 4, size=n) * 0.5                 # three tied ranks
        rank[rng.random(n) < rng.uniform(0.0, 0.9)] = np.nan
        subset = np.flatnonzero(rng.random(n) < rng.uniform(0.2, 1.0))
        alone = oracles.rows_of(graph, subset)
        order = np.lexsort((alone.u2, alone.u1, alone.rrb_arr, alone.ap_arr, rank[subset]))
        want = subset[list(oracles.greedy_by_order_full_read(alone, [order]))].tolist()
        got = _scan(graph, (subset,), rank)
        assert list(got.indices) == want
        # a random order of the subset, read in growing slices
        perm = rng.permutation(subset.size)
        got = _scan(graph, (subset[perm],))
        assert list(got.indices) == subset[list(
            oracles.greedy_by_order_full_read(alone, [perm]))].tolist()
        for ordering in ("original", "modified"):
            assert subset[list(greedy_min_wis(alone, ordering).indices)].tolist() == \
                subset[list(oracles.greedy_full_read(alone, ordering))].tolist()


def test_the_pick_loop_reads_only_live_vertices(monkeypatch):
    """Every chunk after the first is cut by _live before the Python loop
    reads it, on the unranked and the ranked path: no vertex the loop is
    handed conflicts with a pick of an earlier chunk. The chunks are
    recorded where the loop zips them with their columns."""
    handed = []

    def recording_zip(chunk, *columns):
        handed.append(chunk)
        return zip(chunk, *columns)

    monkeypatch.setattr(mwis, "_FIRST_CHUNK", 8)
    monkeypatch.setattr(mwis, "zip", recording_zip, raising=False)
    rng = np.random.default_rng(83)
    for k in range(12):
        n = int(rng.integers(300, 900))
        graph = random_graph(rng, n, n_uds=int(rng.integers(40, 120)), n_aps=int(rng.integers(2, 6)),
                             n_rrbs=int(rng.integers(10, 40)), strict=k % 2 == 1)
        u1, u2, slot = graph.u1.tolist(), graph.u2.tolist(), graph.slot.tolist()
        for parts, rank in (((rng.permutation(n),), None), ((np.arange(n),), graph.weights)):
            handed.clear()
            picked = set(_scan(graph, parts, rank).indices)
            assert len(handed) > 1
            used_uds, used_slots = set(), set()
            for chunk in handed:
                for i in chunk:
                    assert u1[i] not in used_uds and u2[i] not in used_uds, (k, rank is None)
                    assert slot[i] not in used_slots, (k, rank is None)
                for i in picked.intersection(chunk):
                    used_uds.update(u for u in (u1[i], u2[i]) if u >= 0)
                    used_slots.add(slot[i])
