"""Acceptance suite: one test per release criterion.

Each test exercises its criterion end to end and prints a single
"criterion NN <name>: PASS/FAIL" line through record_criterion, so the
suite output doubles as the release checklist.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import gain_arrays, record_criterion
from nomec import (SCHEMES, ExperimentSpec, ScenarioConfig, build_full, build_pruned,
                   enumerate_full, generate, greedy_min_wis, group_demand_cps,
                   random_maximal_is, run_experiment, run_scheme)
from nomec.model import (AccessPoint, ChannelState, CostWeights, MecServer, Task,
                         backhaul_rates, local_cost, mec_cost)
from nomec.power import solve_pairs_batch
import oracles
from oracles import conflicts, exact_min_wis, is_independent, is_maximal

NOISE = 4e-14
B0 = 1e7


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def scenario_seed(master, index):
    # mirrors the harness derivation so structural checks see the same draw
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def test_criterion_01_formula_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0

    def track(got, want):
        nonlocal checked, worst
        worst = max(worst, rel_err(got, want))
        checked += 1

    # uplink SIC rates: every enumerated cluster of random small scenarios,
    # its rates and objective at the powers the batched closed form solved
    for _ in range(16):
        cfg = ScenarioConfig(n_uds=int(rng.integers(4, 10)), n_aps=int(rng.integers(2, 4)),
                             n_mecs=2, rrbs_per_ap=int(rng.integers(1, 3)),
                             seed=int(rng.integers(100000)))
        scn = generate(cfg)
        chan = scn.channel
        graph = enumerate_full(scn)
        for i in range(len(graph)):
            v = graph.vertex(i)
            gains = {u: float(chan.gain_ud_rrb[u, v.ap, v.rrb]) for u in v.uds}
            powered = list(zip(v.uds, v.power.powers))
            sinrs = [oracles.sic_sinr(powered, gains, u, chan.noise_w) for u in v.uds]
            for rate, sinr in zip(v.power.rates, sinrs):
                track(rate, oracles.shannon_rate(sinr, chan.rrb_bandwidth_hz))
            track(v.power.objective, sum(math.log2(1.0 + sinr) for sinr in sinrs))
    sic_checks = checked

    # backhaul rates, scaled and bare
    for _ in range(150):
        ap = AccessPoint(0, (0.0, 0.0), 3, 5e7, float(rng.uniform(0.1, 2.0)),
                         0.1, 750.0)
        mec = MecServer(0, (1.0, 0.0), 3e9)
        gain = float(10.0 ** rng.uniform(-12, -7))
        channel = ChannelState(*gain_arrays(backhaul={(0, 0): gain}), NOISE, B0)
        want = oracles.backhaul_rate(ap.q_tx_w, gain, NOISE, B0, scaled=True)
        track(backhaul_rates([ap], [mec], channel)[0][0], want)
        bare = oracles.backhaul_rate(ap.q_tx_w, gain, NOISE, B0, scaled=False)
        track(backhaul_rates([ap], [mec], channel, bandwidth_scaled=False)[0][0], bare)

    # per-group local and offload costs
    weights = CostWeights()
    for _ in range(100):
        size = int(rng.integers(1, 4))
        group = [(Task(float(rng.uniform(1e4, 1e6)), float(rng.uniform(50, 500)),
                       float(rng.uniform(1e-3, 0.1))), float(rng.uniform(1e5, 1e7)))
                 for _ in range(size)]
        triples = [(t.size_bits, t.density_cpb, r) for t, r in group]
        f_loc = float(rng.uniform(1e7, 1e8))
        d, e = local_cost(group, f_loc, weights)
        dw, ew = oracles.local_delay_energy(triples, f_loc, weights.alpha_cpu)
        track(d, dw)
        track(e, ew)
        ap = AccessPoint(0, (0.0, 0.0), 3, 5e7, float(rng.uniform(0.1, 2.0)),
                         float(rng.uniform(0.01, 0.3)), 750.0)
        mec = MecServer(0, (1.0, 0.0), float(rng.uniform(1e9, 1e10)))
        gain = float(10.0 ** rng.uniform(-11, -8))
        channel = ChannelState(*gain_arrays(backhaul={(0, 0): gain}), NOISE, B0)
        rate_bh = oracles.backhaul_rate(ap.q_tx_w, gain, NOISE, B0)
        d, e = mec_cost(group, ap, mec, channel, weights)
        dw, ew = oracles.mec_delay_energy(triples, rate_bh, mec.f_mec_cps,
                                          ap.q_tx_w, ap.q_idle_w)
        track(d, dw)
        track(e, ew)

    # end-to-end metric recomputation across all schemes
    cfg = ScenarioConfig(n_uds=10, n_aps=5, n_mecs=3)
    for i in range(10):
        scn = generate(dataclasses.replace(cfg, seed=200 + i))
        for scheme in SCHEMES:
            schedule, plan = run_scheme(scn, scheme, seed=i)
            lat, en, cost, cap, sched = oracles.recompute_metrics(
                schedule, plan, scn)
            m = plan.metrics
            track(m.latency_s, lat)
            track(m.energy_j, en)
            track(m.cost, cost)
            assert m.effective_capacity == cap
            assert m.scheduled_uds == sched

    ok = checked >= 1000 and sic_checks >= 600 and worst <= 1e-12
    assert record_criterion(1, "formula oracle", ok,
                            f"{checked} checks, max rel err {worst:.2e}")


def test_criterion_02_independent_set_validity():
    cfg = ScenarioConfig(n_uds=10, n_aps=5, n_mecs=3)
    runs = 0
    violations = 0
    for seed in range(100):
        scn = generate(dataclasses.replace(cfg, seed=seed))
        for scheme in SCHEMES:
            schedule, plan = run_scheme(scn, scheme, seed=seed)
            runs += 1
            assocs = schedule.associations
            clash = any(conflicts(a_i, a_j)
                        for k, a_i in enumerate(assocs)
                        for a_j in assocs[k + 1:])
            graph = plan.extras["final_graph"]
            picked = plan.extras["final_is_indices"]
            if clash or not is_independent(graph, picked) \
                    or not is_maximal(graph, picked):
                violations += 1
    ok = runs == 500 and violations == 0
    assert record_criterion(2, "independent set validity", ok,
                            f"{runs} runs, {violations} violations")


def test_criterion_03_solver_quality_ordering():
    # random graphs drawn as the conflict graphs of randomized small
    # scenarios, capped at 20 vertices so brute force stays exact
    rng = np.random.default_rng(303)
    shapes = ((3, 2, 1), (4, 2, 1), (4, 1, 2), (5, 1, 1), (3, 1, 2))
    eps = 1e-12
    graphs = 0
    violations = 0
    attempts = 0
    while graphs < 200 and attempts < 2000:
        attempts += 1
        n, m, z = shapes[int(rng.integers(len(shapes)))]
        cfg = ScenarioConfig(n_uds=n, n_aps=m, n_mecs=2, rrbs_per_ap=z,
                             seed=int(rng.integers(100000)))
        graph = build_full(generate(cfg))
        if not 2 <= len(graph) <= 20:
            continue
        graphs += 1
        exact = exact_min_wis(graph).total_weight
        greedy = greedy_min_wis(graph).total_weight
        rand_mean = float(np.mean([random_maximal_is(graph, s).total_weight
                                   for s in range(100)]))
        if exact > greedy * (1.0 + eps) or greedy > rand_mean * (1.0 + eps):
            violations += 1
    ok = graphs == 200 and violations == 0
    assert record_criterion(3, "solver quality ordering", ok,
                            f"{graphs} graphs, {violations} violations")


def test_criterion_04_power_solver_vs_grid():
    rng = np.random.default_rng(404)
    thresholds = (0.0, 5e4, 5e6, 2e7)
    channel = ChannelState(*gain_arrays(), NOISE, B0)
    worst_deficit = 0.0
    feasible_cases = 0
    ok = True
    for i in range(200):
        members = [(0, float(10.0 ** rng.uniform(-13, -9))),
                   (1, float(10.0 ** rng.uniform(-13, -9)))]
        cons = oracles.PowerLimits(p_max_w=0.5, rate_threshold_bps=thresholds[i % 4])
        *_, objective, feasible = solve_pairs_batch(
            [members[0][1]], [members[1][1]], cons.p_max_w, NOISE, B0, cons.rate_threshold_bps)
        objective = float(objective[0])
        grid = oracles.grid_oracle(members, channel, cons, resolution=512)
        if grid.feasible:
            feasible_cases += 1
            if not feasible[0]:
                ok = False
                continue
            # the grid never exceeds the true optimum, so the solver must
            # reach at least the grid value
            deficit = max(0.0, (grid.objective - objective)
                          / max(abs(grid.objective), 1e-300))
            worst_deficit = max(worst_deficit, deficit)
            if cons.rate_threshold_bps == 0.0:
                # unconstrained optimum sits on the grid corner exactly
                ok = ok and rel_err(objective, grid.objective) <= 1e-9
    ok = ok and worst_deficit <= 1e-6 and feasible_cases >= 100
    assert record_criterion(4, "power solver vs grid", ok,
                            f"200 pairs, {feasible_cases} feasible, "
                            f"max deficit {worst_deficit:.2e}")


def test_criterion_05_all_offload_capacity_bound():
    cfg = ScenarioConfig(n_uds=16, deadline_s=0.05)
    bound = 2 * cfg.n_mecs
    assert cfg.n_uds >= bound + 2
    spec = ExperimentSpec(config=cfg, sweep_values=(16,),
                          schemes=("all_offload",), trials=100, master_seed=3)
    rows = run_experiment(spec)
    caps = [r.capacity for r in rows]
    at_bound = sum(1 for c in caps if c == bound)
    ok = len(caps) == 100 and max(caps) <= bound and at_bound >= 95
    assert record_criterion(5, "all-offload capacity bound", ok,
                            f"max {max(caps)} vs bound {bound}, "
                            f"{at_bound}/100 at bound")


def test_criterion_06_capacity_saturation():
    values = (6, 12, 18, 24, 30, 36, 42)
    spec = ExperimentSpec(config=ScenarioConfig(), sweep_values=values,
                          schemes=("joint", "pruning"), trials=30,
                          master_seed=5)
    rows = run_experiment(spec, workers=4)
    ok = True
    details = []
    for scheme in ("joint", "pruning"):
        means = [float(np.mean([r.capacity for r in rows
                                if r.scheme == scheme and r.sweep_value == v]))
                 for v in values]
        ramp = means[:5]
        ok = ok and all(b >= a - 1e-9 for a, b in zip(ramp, ramp[1:]))
        tail_change = abs(means[6] - means[5]) / means[5]
        ok = ok and tail_change < 0.05
        details.append(f"{scheme} {means[3]:.1f}@24 {means[4]:.1f}@30 "
                       f"tail {100 * tail_change:.1f}%")
    # 21@24 and 27@30 are reference targets, reported but not gated
    assert record_criterion(6, "capacity saturation", ok, "; ".join(details))


def test_criterion_07_scheme_cost_ordering():
    spec = ExperimentSpec(config=ScenarioConfig(), sweep_values=(24,),
                          schemes=SCHEMES, trials=50, master_seed=11)
    rows = run_experiment(spec)
    cost = {(r.scheme, r.trial): r.cost for r in rows}
    slack = 1.0 + 1e-9
    wins = {"joint<=pruning": 0, "pruning<=random": 0, "joint<=local": 0}
    for t in range(50):
        if cost[("joint", t)] <= cost[("pruning", t)] * slack:
            wins["joint<=pruning"] += 1
        if cost[("pruning", t)] <= cost[("random", t)] * slack:
            wins["pruning<=random"] += 1
        if cost[("joint", t)] <= cost[("local", t)] * slack:
            wins["joint<=local"] += 1
    ok = all(v >= 35 for v in wins.values())
    detail = ", ".join(f"{k} {v}/50" for k, v in wins.items())
    assert record_criterion(7, "scheme cost ordering", ok, detail)


def test_criterion_08_task_size_monotonicity():
    base = ScenarioConfig()
    runs = {}
    for label, size_range in (("base", (400.0, 600.0)),
                              ("doubled", (800.0, 1200.0))):
        spec = ExperimentSpec(config=base, sweep_var="task_size_range_bits",
                              sweep_values=(size_range,), schemes=SCHEMES,
                              trials=50, master_seed=23)
        runs[label] = {(r.scheme, r.trial): r.latency_s
                       for r in run_experiment(spec)}
    ok = True
    details = []
    for scheme in SCHEMES:
        inc = sum(1 for t in range(50)
                  if runs["doubled"][(scheme, t)] > runs["base"][(scheme, t)])
        dec = sum(1 for t in range(50)
                  if runs["doubled"][(scheme, t)] < runs["base"][(scheme, t)])
        p = oracles.sign_test_p_increase(inc, dec)
        ok = ok and inc > dec and p < 0.05
        details.append(f"{scheme} +{inc}/-{dec} p={p:.1e}")
    assert record_criterion(8, "task size monotonicity", ok,
                            "; ".join(details))


def test_criterion_09_density_collapse():
    base = ScenarioConfig(n_uds=24, f_mec_cps=3e11)
    dense = dataclasses.replace(base, density_cpb=8000.0,
                                seed=scenario_seed(17, 0))
    scn = generate(dense)
    # at the raised density every singleton and pair load breaks the
    # per-slot cycle budget, so the pruned candidate set is empty
    structural = True
    for ap in scn.aps:
        budget = ap.f_loc_max_cps / ap.num_rrbs
        covered = sorted(scn.coverage[ap.id])
        for i, u in enumerate(covered):
            if group_demand_cps([scn.devices[u].task]) <= budget:
                structural = False
            for v in covered[i + 1:]:
                if group_demand_cps([scn.devices[u].task,
                                     scn.devices[v].task]) <= budget:
                    structural = False
    structural = structural and len(build_pruned(scn)) == 0

    caps = {}
    for label, density in (("lo", 100.0), ("hi", 8000.0)):
        cfg = dataclasses.replace(base, density_cpb=density)
        spec = ExperimentSpec(config=cfg, sweep_values=(24,),
                              schemes=("local", "all_offload"), trials=50,
                              master_seed=17)
        rows = run_experiment(spec)
        caps[label] = {s: [r.capacity for r in rows if r.scheme == s]
                       for s in ("local", "all_offload")}
    local_zero = all(c == 0 for c in caps["hi"]["local"])
    local_live = any(c > 0 for c in caps["lo"]["local"])
    bound = 2 * base.n_mecs
    within_bound = all(c <= bound
                       for c in caps["lo"]["all_offload"] + caps["hi"]["all_offload"])
    mean_lo = float(np.mean(caps["lo"]["all_offload"]))
    mean_hi = float(np.mean(caps["hi"]["all_offload"]))
    drift = abs(mean_hi - mean_lo) / mean_lo
    ok = structural and local_zero and local_live and within_bound and drift <= 0.05
    assert record_criterion(9, "density collapse", ok,
                            f"local 0/{len(caps['hi']['local'])} scheduled, "
                            f"all-offload drift {100 * drift:.1f}%")


def test_criterion_10_pruned_subset():
    rng = np.random.default_rng(1010)
    checked = 0
    for _ in range(100):
        cfg = ScenarioConfig(n_uds=int(rng.integers(4, 11)),
                             n_aps=int(rng.integers(2, 6)), n_mecs=2,
                             seed=int(rng.integers(100000)))
        scn = generate(cfg)
        full_keys = {v.key for v in build_full(scn).vertices}
        pruned_keys = {v.key for v in build_pruned(scn).vertices}
        assert pruned_keys <= full_keys
        checked += 1
    assert record_criterion(10, "pruned subset", checked == 100,
                            f"{checked} instances")


def _time_builds(configs, builder, reps=2):
    """Best-of-reps build time per config. Each repetition times every size
    once, so a swing in host speed hits all sizes alike rather than the
    sizes that happen to be timed during it."""
    scenarios = [generate(cfg) for cfg in configs]
    times = [float("inf")] * len(scenarios)
    for _ in range(reps):
        for i, scn in enumerate(scenarios):
            start = time.perf_counter()
            builder(scn)
            times[i] = min(times[i], time.perf_counter() - start)
    return times


def test_criterion_11_graph_size_and_build_scaling():
    # exact vertex count on an unconstrained instance
    cfg = ScenarioConfig(n_uds=10, n_aps=4, n_mecs=2, rrbs_per_ap=3,
                         ap_coverage_m=4000.0, rate_threshold_bps=0.0, seed=2)
    count_ok = len(build_full(generate(cfg))) == oracles.full_vertex_count(10, 4, 3)
    cfg14 = dataclasses.replace(cfg, n_uds=14)
    count_ok = count_ok and \
        len(build_full(generate(cfg14))) == oracles.full_vertex_count(14, 4, 3)

    # pruned construction stays near-linear in the device count
    pruned_ns = (8, 16, 32, 64)
    pruned_cfgs = [ScenarioConfig(n_uds=n, seed=2) for n in pruned_ns]
    pruned_t = _time_builds(pruned_cfgs, build_pruned)
    pruned_slope = float(np.polyfit(np.log(pruned_ns), np.log(pruned_t), 1)[0])

    # the full graph grows superquadratically once M * Z is large
    full_ns = (8, 12, 16, 20)
    full_cfgs = [ScenarioConfig(n_uds=n, n_aps=24, rrbs_per_ap=10,
                                ap_coverage_m=4000.0, rate_threshold_bps=0.0,
                                seed=2) for n in full_ns]
    full_t = _time_builds(full_cfgs, build_full)
    full_slope = float(np.polyfit(np.log(full_ns), np.log(full_t), 1)[0])

    ok = count_ok and pruned_slope <= 2.3 and full_slope >= 3.5
    assert record_criterion(11, "graph size and build scaling", ok,
                            f"count {'ok' if count_ok else 'bad'}, "
                            f"pruned slope {pruned_slope:.2f}, "
                            f"full slope {full_slope:.2f}")


def test_criterion_12_cli_determinism(tmp_path):
    outputs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.csv"
        cmd = [sys.executable, "-m", "nomec.cli", "--sweep", "n_uds=8,12",
               "--trials", "3", "--seed", "7", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    header_ok = outputs[0].decode().splitlines()[0].startswith(
        "scheme,sweep_var,sweep_value")
    ok = outputs[0] == outputs[1] and header_ok
    assert record_criterion(12, "CLI determinism", ok,
                            f"{len(outputs[0])} bytes per run")
