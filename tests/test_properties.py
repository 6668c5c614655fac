"""Seeded property loops over random scenario configs.

Every config runs all five schemes with both MWIS orderings. Each run must
give a valid schedule and finite metrics, and agree with the oracles: the
metrics recomputed from raw data, the picks of a whole-order walk, and the
modified ranks of the np.unique route and of the explicit adjacency.
"""

import dataclasses
import math

import numpy as np
import pytest

from nomec import SCHEMES, ScenarioConfig, generate, modified_ranks, run_scheme
from nomec.mwis import ORDERINGS
import oracles

# corners the loop must reach, run in both CC2 modes before random configs
CORNERS = (ScenarioConfig(n_uds=1), ScenarioConfig(n_uds=12, n_aps=3, n_mecs=8),
           ScenarioConfig(n_uds=16, ap_coverage_m=40.0), ScenarioConfig(n_uds=16, rrbs_per_ap=1))


def random_config(rng):
    lo = float(rng.uniform(100.0, 1500.0))
    return ScenarioConfig(
        n_uds=int(rng.integers(1, 25)), n_aps=int(rng.integers(1, 7)),
        n_mecs=int(rng.integers(1, 9)), rrbs_per_ap=int(rng.integers(1, 4)),
        ap_coverage_m=float(np.exp(rng.uniform(np.log(30.0), np.log(1500.0)))),
        task_size_range_bits=(lo, lo * float(rng.uniform(1.0, 4.0))),
        density_cpb=float(rng.choice([100.0, 500.0, 2000.0])))


def configs(rng, n_random):
    """(config, strict_cc2): the corners in both modes, then random ones."""
    for cfg in CORNERS:
        for strict in (False, True):
            yield dataclasses.replace(cfg, seed=int(rng.integers(10_000))), strict
    for _ in range(n_random):
        yield dataclasses.replace(random_config(rng), seed=int(rng.integers(10_000))), \
            bool(rng.random() < 0.5)


def check_ranks(graph):
    ranks = modified_ranks(graph)
    assert np.array_equal(ranks, oracles.modified_ranks_by_unique(graph))
    if len(graph) <= 300:
        # vertices adjacent to all others rank about 1e-16 * w * W, not 0
        adj = oracles.adjacency_matrix(graph).tolist()
        w = graph.weights.tolist()
        for i, rank in enumerate(ranks):
            want = oracles.modified_weight(i, adj, w)
            assert abs(rank - want) <= 1e-12 * w[i] * sum(w)


def check_run(scn, scheme, ordering, strict, seed):
    schedule, plan = run_scheme(scn, scheme, seed=seed, strict_cc2=strict,
                                mwis_ordering=ordering)
    graph, picks = plan.extras["final_graph"], list(plan.extras["final_is_indices"])
    assert oracles.is_independent(graph, picks) and oracles.is_maximal(graph, picks)
    assocs = schedule.associations
    for i, a in enumerate(assocs):
        assert all(not oracles.conflicts(a, b, strict) for b in assocs[i + 1:])
    if scheme in ("joint", "pruning", "local"):
        modified = ordering == "modified" and scheme != "local"
        rank = modified_ranks(graph) if modified else graph.weights
        assert tuple(picks) == oracles.picks_in_order(graph, rank=rank)
        if modified:
            check_ranks(graph)
    elif scheme == "random":
        order = np.random.default_rng(seed).permutation(len(graph)).tolist()
        assert tuple(picks) == oracles.picks_in_order(graph, order)
    m = plan.metrics
    assert all(math.isfinite(v) for v in (m.latency_s, m.energy_j, m.cost))
    assert 0 <= m.effective_capacity <= m.scheduled_uds <= len(scn.devices)
    lat, en, cost, cap, scheduled = oracles.recompute_metrics(schedule, plan, scn)
    assert (m.latency_s, m.energy_j, m.cost) == pytest.approx((lat, en, cost), rel=1e-12)
    assert (m.effective_capacity, m.scheduled_uds) == (cap, scheduled)


def test_every_scheme_is_valid_on_random_configs():
    rng = np.random.default_rng(67)
    runs = 0
    reached = set()
    for cfg, strict in configs(rng, n_random=40):
        scn = generate(cfg)
        reached |= {name for name, hit in (
            ("one UD", cfg.n_uds == 1), ("more MECs than APs", cfg.n_mecs > cfg.n_aps),
            ("unservable UDs", bool(scn.unservable)), ("one RRB per AP", cfg.rrbs_per_ap == 1),
            ("strict CC2", strict)) if hit}
        for scheme in SCHEMES:
            for ordering in ORDERINGS:
                check_run(scn, scheme, ordering, strict, seed=cfg.seed)
                runs += 1
    assert runs == (2 * len(CORNERS) + 40) * len(SCHEMES) * len(ORDERINGS)
    assert reached == {"one UD", "more MECs than APs", "unservable UDs", "one RRB per AP",
                       "strict CC2"}
