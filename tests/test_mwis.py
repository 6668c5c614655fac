"""Minimum-weight maximal independent set search."""

import numpy as np
import pytest

from nomec import (NomaAssociation, ScenarioConfig, enumerate_full,
                   exact_min_wis, generate, greedy_min_wis, modified_ranks,
                   random_maximal_is)
from nomec.graph import from_associations
from nomec.mwis import is_independent, is_maximal
import oracles


def assoc(uds, rrb=0, ap=0, weight=1.0):
    return NomaAssociation(tuple(uds), rrb, ap, None, weight)


def star_graph():
    # vertex 0 conflicts with every leaf; leaves are pairwise compatible
    center = assoc((0, 1), rrb=0, ap=0, weight=1.1)
    leaves = [assoc((2,), rrb=0, ap=0, weight=1.0),
              assoc((0,), rrb=0, ap=1, weight=1.0),
              assoc((1,), rrb=0, ap=2, weight=1.0)]
    return from_associations([center] + leaves)


def random_graph(rng, n_verts, n_uds=6, n_aps=2, n_rrbs=2):
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
        out.append(NomaAssociation(key[0], key[1], key[2], None,
                                   float(rng.uniform(0.1, 5.0))))
    return from_associations(out)


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
    graph = from_associations(verts)
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
        adj = graph.adjacency_matrix().tolist()
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
    graph = from_associations(())
    assert greedy_min_wis(graph).indices == ()
    assert exact_min_wis(graph).total_weight == 0.0
    assert random_maximal_is(graph, seed=0).vertices == ()
    some = from_associations([assoc((0,), 0, 0, 1.0)])
    with pytest.raises(ValueError):
        greedy_min_wis(some, ordering="lightest")


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
        mat = graph.adjacency_matrix()
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
        mat = graph.adjacency_matrix()
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
        adj = graph.adjacency_matrix().tolist()
        weights = list(graph.weights)
        want = [oracles.modified_weight(i, adj, weights) for i in range(len(graph))]
        assert modified_ranks(graph) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_independence_and_maximality_match_dense_route():
    rng = np.random.default_rng(43)
    graphs = [random_graph(rng, int(rng.integers(2, 30))) for _ in range(30)]
    graphs += [g for n_uds, g in scenario_corpus() if n_uds == 8]
    outcomes = set()
    for graph in graphs:
        mat = graph.adjacency_matrix()
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
