"""Core model formulas: SIC rates (from the batched power solve), backhaul
rates, delays, energies, metrics."""

import dataclasses
import math

import numpy as np
import pytest

from nomec import (AccessPoint, ChannelState, CostWeights,
                   InfeasibleUploadError, InvalidAssignmentError,
                   InvalidTopologyError, MecServer, ScenarioConfig, Task,
                   backhaul_rates, generate, local_cost, mec_cost, run_scheme,
                   system_metrics)
from nomec.power import solve_pairs_batch
from conftest import gain_arrays
import oracles


def make_channel(gain_ud_rrb=None, gain_ap_mec=None, noise_w=1e-12, b0=1e7):
    up, bh = gain_arrays(gain_ud_rrb, gain_ap_mec)
    return ChannelState(gain_ud_rrb=up, gain_ap_mec=bh, noise_w=noise_w, rrb_bandwidth_hz=b0)


def test_task_cycles():
    t = Task(size_bits=500.0, density_cpb=100.0, deadline_s=0.01)
    assert t.cycles == 5e4


def test_task_validation():
    for kwargs in ({"size_bits": 0.0}, {"density_cpb": -1.0}, {"deadline_s": 0.0}):
        fields = {"size_bits": 500.0, "density_cpb": 100.0, "deadline_s": 0.01}
        fields.update(kwargs)
        with pytest.raises(ValueError):
            Task(**fields)


def test_entity_validation():
    with pytest.raises(ValueError):
        AccessPoint(0, (0.0, 0.0), 0, 5e7, 0.5, 0.05, 750.0)
    with pytest.raises(ValueError):
        AccessPoint(0, (0.0, 0.0), 3, 5e7, 0.5, -0.1, 750.0)
    with pytest.raises(ValueError):
        MecServer(0, (0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        CostWeights(w_latency=-0.5)
    with pytest.raises(ValueError):
        ChannelState(*gain_arrays(), noise_w=0.0, rrb_bandwidth_hz=1e7)
    with pytest.raises(ValueError):
        ChannelState(np.zeros((2, 2)), np.zeros((2, 2)), noise_w=1e-12, rrb_bandwidth_hz=1e7)


def test_sinr_two_ud_cluster():
    # hand-evaluated: with no rate floor both UDs send at p_max = 0.1; the
    # stronger UD is decoded first and sees the weaker one as interference,
    # the weaker UD ends interference-free
    *_, r1, r2, _, feasible = solve_pairs_batch([1e-9], [1e-10], 0.1, 1e-12, 1e7, 0.0)
    assert feasible[0]
    assert r1[0] == pytest.approx(1e7 * math.log2(1.0 + 1e-10 / (1e-11 + 1e-12)), rel=1e-12)
    assert r2[0] == pytest.approx(1e7 * math.log2(1.0 + 10.0), rel=1e-12)


def test_sinr_gain_tie_breaks_by_id():
    # equal gains: the smaller id decodes first, so only it sees
    # interference; a rate floor holds the larger id below p_max
    g, noise = 2e-10, 1e-12
    p3, p7, r3, r7, _, feasible = solve_pairs_batch([g], [g], 0.4, noise, 1e7, 2e7)
    assert feasible[0] and p3[0] == 0.4 and p7[0] < 0.4
    assert r3[0] == pytest.approx(1e7 * math.log2(1.0 + 0.4 * g / (p7[0] * g + noise)),
                                  rel=1e-12)
    assert r7[0] == pytest.approx(1e7 * math.log2(1.0 + p7[0] * g / noise), rel=1e-12)
    members, gains = [(3, p3[0]), (7, p7[0])], {3: g, 7: g}
    for u, rate in ((3, r3[0]), (7, r7[0])):
        want = oracles.shannon_rate(oracles.sic_sinr(members, gains, u, noise), 1e7)
        assert rate == pytest.approx(want, rel=1e-12)


def test_channel_state_refuses_non_finite_and_negative_gains():
    """A NaN, infinite or negative gain in either array is refused by the
    array's name; a zero gain is a dead link and stays valid."""
    up, bh = gain_arrays({(0, 0, 0): 1e-9, (1, 1, 1): 0.0}, {(0, 0): 1e-9, (1, 1): 0.0})
    ChannelState(up, bh, noise_w=1e-12, rrb_bandwidth_hz=1e7)
    for name, gains in (("gain_ud_rrb", up), ("gain_ap_mec", bh)):
        for bad in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
            broken = gains.copy()
            broken.flat[-1] = bad
            arrays = {"gain_ud_rrb": up, "gain_ap_mec": bh, name: broken}
            with pytest.raises(ValueError, match=name):
                ChannelState(**arrays, noise_w=1e-12, rrb_bandwidth_hz=1e7)


def test_backhaul_rate_value_and_scaling():
    ap = AccessPoint(0, (0.0, 0.0), 3, 5e7, q_tx_w=0.5, q_idle_w=0.05,
                     coverage_radius_m=750.0)
    mec = MecServer(0, (100.0, 0.0), 3e9)
    chan = make_channel(gain_ap_mec={(0, 0): 2e-12}, noise_w=1e-12, b0=1e7)
    se = math.log2(1.0 + 0.5 * 2e-12 / 1e-12)
    assert backhaul_rates([ap], [mec], chan) == {0: [pytest.approx(1e7 * se, rel=1e-12)]}
    assert backhaul_rates([ap], [mec], chan, bandwidth_scaled=False) == \
        {0: [pytest.approx(se, rel=1e-12)]}


def test_backhaul_rates_match_backhaul_rate_bit_for_bit():
    """The rate table holds, per AP id and in MEC order, the bits the
    per-link oracle backhaul_rate gives for each link, scaled or not,
    zero-gain links included; an AP or MEC id outside the backhaul gains
    is refused."""
    scn = generate(ScenarioConfig(seed=2))
    gains = scn.channel.gain_ap_mec.copy()
    gains[::2, 1] = 0.0
    chan = dataclasses.replace(scn.channel, gain_ap_mec=gains)
    for scaled in (True, False):
        for aps, mecs in ((scn.aps, scn.mecs), (scn.aps[3:5], scn.mecs[::-1]), ((), scn.mecs),
                          (scn.aps, ())):
            rates = backhaul_rates(aps, mecs, chan, scaled)
            assert list(rates) == [ap.id for ap in aps]
            for ap in aps:
                want = [oracles.backhaul_rate(ap.q_tx_w, float(gains[ap.id, mec.id]),
                                              chan.noise_w, chan.rrb_bandwidth_hz, scaled)
                        for mec in mecs]
                assert [r.hex() for r in rates[ap.id]] == [r.hex() for r in want]
                assert all(type(r) is float for r in rates[ap.id])
    assert backhaul_rates(scn.aps, scn.mecs, chan)[0][1] == 0.0     # a zero-gain link
    past_ap = dataclasses.replace(scn.aps[0], id=len(scn.aps))
    past_mec = dataclasses.replace(scn.mecs[0], id=len(scn.mecs))
    for aps, mecs in (([past_ap], scn.mecs), ([past_ap], ()), (scn.aps, [past_mec]),
                      ((), [past_mec]), ([dataclasses.replace(scn.aps[0], id=-1)], scn.mecs),
                      (scn.aps, [dataclasses.replace(scn.mecs[0], id=-1)])):
        with pytest.raises(InvalidTopologyError):
            backhaul_rates(aps, mecs, chan)


def test_local_cost_single_task():
    w = CostWeights(alpha_cpu=1e-27)
    task = Task(500.0, 100.0, 0.01)
    delay, energy = local_cost([(task, 1e6)], 5e7, w)
    assert delay == pytest.approx(500.0 / 1e6 + 5e4 / 5e7, rel=1e-12)
    assert energy == pytest.approx(1e-27 * 5e4 * (5e7) ** 2, rel=1e-12)


def test_local_cost_group_takes_slowest_upload():
    w = CostWeights()
    t1 = Task(400.0, 100.0, 0.01)
    t2 = Task(600.0, 100.0, 0.01)
    delay, _ = local_cost([(t1, 1e6), (t2, 1e5)], 5e7, w)
    assert delay == pytest.approx(600.0 / 1e5 + (4e4 + 6e4) / 5e7, rel=1e-12)


def test_local_cost_edge_cases():
    w = CostWeights()
    assert local_cost([], 5e7, w) == (0.0, 0.0)
    task = Task(500.0, 100.0, 0.01)
    with pytest.raises(ValueError):
        local_cost([(task, 1e6)], 0.0, w)
    with pytest.raises(InfeasibleUploadError):
        local_cost([(task, 0.0)], 5e7, w)


def test_mec_cost_hand_example():
    # one task B=500, lambda=100 offloaded over a 1e6 bit/s backhaul to a
    # 3 GHz server: delay 5e-4 + 5e-4 + 1.667e-5, energy 5e-4*1 + 1.667e-5*0.1
    w = CostWeights()
    ap = AccessPoint(0, (0.0, 0.0), 3, 5e7, q_tx_w=1.0, q_idle_w=0.1,
                     coverage_radius_m=750.0)
    mec = MecServer(0, (0.0, 0.0), 3e9)
    b0 = 1e7
    snr = 2.0 ** (1e6 / b0) - 1.0
    chan = make_channel(gain_ap_mec={(0, 0): snr * 1e-12 / 1.0}, noise_w=1e-12, b0=b0)
    task = Task(500.0, 100.0, 0.01)
    delay, energy = mec_cost([(task, 1e6)], ap, mec, chan, w)
    t_cpu = 5e4 / 3e9
    assert delay == pytest.approx(5e-4 + 5e-4 + t_cpu, rel=1e-9)
    assert energy == pytest.approx(5e-4 * 1.0 + t_cpu * 0.1, rel=1e-9)


def test_mec_cost_errors():
    w = CostWeights()
    ap = AccessPoint(0, (0.0, 0.0), 3, 5e7, 1.0, 0.1, 750.0)
    mec = MecServer(0, (0.0, 0.0), 3e9)
    chan = make_channel(gain_ap_mec={(0, 0): 1e-12}, noise_w=1e-12)
    assert mec_cost([], ap, mec, chan, w) == (0.0, 0.0)
    task = Task(500.0, 100.0, 0.01)
    with pytest.raises(InfeasibleUploadError):
        mec_cost([(task, 0.0)], ap, mec, chan, w)
    with pytest.raises(InvalidTopologyError):
        mec_cost([(task, 1e6)], ap, MecServer(9, (0.0, 0.0), 3e9), chan, w)


def test_system_metrics_matches_oracle_recompute():
    """End-to-end: every scheme's reported metrics equal an independent
    re-evaluation of the same schedule and plan."""
    for seed in range(6):
        scn = generate(ScenarioConfig(n_uds=10, n_aps=5, n_mecs=3, seed=seed))
        for scheme in ("joint", "pruning", "local", "all_offload", "random"):
            schedule, plan = run_scheme(scn, scheme, seed=seed)
            lat, en, cost, cap, sched = oracles.recompute_metrics(schedule, plan, scn)
            m = plan.metrics
            assert m.latency_s == pytest.approx(lat, rel=1e-12, abs=1e-15)
            assert m.energy_j == pytest.approx(en, rel=1e-12, abs=1e-15)
            assert m.cost == pytest.approx(cost, rel=1e-12, abs=1e-15)
            assert m.effective_capacity == cap
            assert m.scheduled_uds == sched


def test_system_metrics_failed_group_is_dropped():
    scn = generate(ScenarioConfig(n_uds=10, n_aps=5, n_mecs=3, seed=1))
    schedule, plan = run_scheme(scn, "joint")
    served = [m for m, e in schedule.ap_groups.items() if e and m not in plan.failed_aps]
    assert served, "expected at least one served group"
    drop = served[0]
    worse = dataclasses.replace(plan, failed_aps=plan.failed_aps | {drop})
    m2 = system_metrics(schedule, worse, scn)
    assert m2.scheduled_uds == plan.metrics.scheduled_uds
    assert m2.effective_capacity <= plan.metrics.effective_capacity - 1
    assert m2.latency_s <= plan.metrics.latency_s
    assert m2.energy_j <= plan.metrics.energy_j


def test_system_metrics_inconsistent_plan_raises():
    scn = generate(ScenarioConfig(n_uds=10, n_aps=5, n_mecs=3, seed=1))
    schedule, plan = run_scheme(scn, "joint")
    nonempty = [m for m, e in schedule.ap_groups.items() if e]
    target = nonempty[0]
    # flagged for offload but neither admitted, fallback, nor failed
    broken_x = dict(plan.local.x)
    broken_x[target] = True
    broken = dataclasses.replace(
        plan,
        local=dataclasses.replace(plan.local, x=broken_x),
        admission=dataclasses.replace(plan.admission,
                                      y={**plan.admission.y, target: False}),
        failed_aps=plan.failed_aps - {target},
        fallback_aps=plan.fallback_aps - {target})
    with pytest.raises(InvalidAssignmentError):
        system_metrics(schedule, broken, scn)
