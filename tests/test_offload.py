"""Local CPU allocation, layer weights, and admission control."""

import math

import numpy as np
import pytest

from nomec import (AccessPoint, ChannelState, CostWeights, MecServer, Task,
                   admission_control, allocate_local, backhaul_rates,
                   first_layer_weight, group_demand_cps, second_layer_weights)
from nomec.model import _group_totals, cap_side, sum_left_to_right
from conftest import gain_arrays
import oracles

NOISE = 4e-14
B0 = 1e7


def make_backhaul(gain=2e-9):
    ap = AccessPoint(id=0, position=(0.0, 0.0), num_rrbs=3, f_loc_max_cps=5e7,
                     q_tx_w=1.0, q_idle_w=0.1, coverage_radius_m=750.0)
    mec = MecServer(id=0, position=(10.0, 0.0), f_mec_cps=3e9)
    up, bh = gain_arrays(backhaul={(0, 0): gain})
    channel = ChannelState(gain_ud_rrb=up, gain_ap_mec=bh, noise_w=NOISE, rrb_bandwidth_hz=B0)
    return ap, mec, channel


def test_allocate_local_three_cases():
    cap = 2e9
    groups = {
        0: [Task(1e5, 100.0, 0.01)],    # demand 1e9, below the cap
        1: [Task(2e5, 100.0, 0.01)],    # demand exactly at the cap
        2: [Task(4e5, 100.0, 0.01)],    # demand 4e9, must offload
    }
    alloc = allocate_local(groups, dict.fromkeys(groups, cap))
    assert alloc.f_loc[0] == pytest.approx(1e9, rel=1e-12)
    assert alloc.x[0] is False
    assert alloc.f_loc[1] == cap
    assert alloc.x[1] is False
    assert alloc.f_loc[2] == cap
    assert alloc.x[2] is True


def test_allocate_local_group_demand_uses_tightest_deadline():
    # 3e7 cycles over 2 tasks with min deadline 0.005 -> 3e9 cycles/s
    groups = {0: [Task(1e5, 100.0, 0.01), Task(2e5, 100.0, 0.005)]}
    alloc = allocate_local(groups, {0: 4e9})
    assert alloc.f_loc[0] == pytest.approx(3e9, rel=1e-12)
    assert alloc.x[0] is False
    tight = allocate_local(groups, {0: 2e9})
    assert tight.f_loc[0] == 2e9
    assert tight.x[0] is True


def test_allocate_local_tolerance_band():
    cap = 1e9
    groups = {0: [Task(cap * 0.01 * (1.0 + 1e-10) / 100.0, 100.0, 0.01)]}
    alloc = allocate_local(groups, {0: cap})
    assert alloc.f_loc[0] == cap
    assert alloc.x[0] is False


def test_cap_side_is_allocate_locals_three_cases():
    """cap_side's -1, 0 and 1 are allocate_local's three cases, f = D, f at
    the cap and offload, for floats and arrays alike; NaN and inf demands
    count as above the cap."""
    cap = 1e9
    cases = [(0.5 * cap, -1), (cap * (1 - 1e-8), -1), (cap * (1 - 1e-10), 0), (cap, 0),
             (cap * (1 + 1e-10), 0), (cap * (1 + 1e-8), 1), (2 * cap, 1), (math.inf, 1),
             (math.nan, 1)]
    assert cap_side(np.array([d for d, _ in cases]), cap).tolist() == [s for _, s in cases]
    for demand, side in cases:
        assert cap_side(demand, cap) == side
        # density 1 and a 1 s deadline make the group demand the task size
        alloc = allocate_local({0: [Task(demand, 1.0, 1.0)]}, {0: cap})
        assert alloc.x[0] is (side > 0)
        assert alloc.f_loc[0] == (demand if side < 0 else cap)


def test_allocate_local_empty_and_invalid():
    alloc = allocate_local({0: []}, {0: 1e9})
    assert alloc.f_loc[0] == 0.0
    assert alloc.x[0] is False
    assert allocate_local({}, {0: 1e9}).f_loc == {}
    with pytest.raises(ValueError):
        allocate_local({0: [Task(1.0, 1.0, 1.0)]}, {0: 0.0})


def test_first_layer_weight_matches_oracle():
    weights = CostWeights()
    group = [(Task(4e5, 120.0, 0.01), 2e6), (Task(6e5, 80.0, 0.01), 3e6)]
    f = 5e7
    d, e = oracles.local_delay_energy(
        [(t.size_bits, t.density_cpb, r) for t, r in group], f,
        weights.alpha_cpu)
    assert first_layer_weight(group, f, weights) == pytest.approx(d + e, rel=1e-12)
    assert first_layer_weight([], f, weights) == 0.0


def test_second_layer_weight_matches_oracle():
    ap, mec, channel = make_backhaul()
    tasks = [Task(1e5, 100.0, 0.01), Task(2e5, 200.0, 0.01)]
    for scaled in (True, False):
        rate = oracles.backhaul_rate(ap.q_tx_w, 2e-9, NOISE, B0, scaled=scaled)
        want = oracles.second_layer_weight([(1e5, 100.0), (2e5, 200.0)], rate)
        assert want == pytest.approx(rate * 150.0 / 3e5, rel=1e-12)
        rates = backhaul_rates([ap], [mec], channel, scaled)[ap.id]
        assert second_layer_weights(tasks, rates) == [pytest.approx(want, rel=1e-12)]
        assert second_layer_weights(tasks, [rate, 0.0, 2 * rate]) == \
            [want, 0.0, pytest.approx(2 * want, rel=1e-12)]
    with pytest.raises(ValueError):
        second_layer_weights([], [1.0])


def test_group_sums_run_left_to_right():
    """Demand and second-layer sums add the tasks one at a time, in order,
    on every Python: 2**53 + 1 + 1 stays 2**53, where the compensated
    sum() of Python 3.12 gives 2**53 + 2."""
    deadline = 0.01
    tasks = [Task(2.0 ** 53, 1.0, deadline), Task(1.0, 1.0, deadline), Task(1.0, 1.0, deadline)]
    assert group_demand_cps(tasks) == 2.0 ** 53 / (3 * deadline)
    assert allocate_local({0: tasks}, {0: 1e300}).f_loc[0] == 2.0 ** 53 / (3 * deadline)
    assert second_layer_weights(tasks, [2.0 ** 53]) == [1.0]
    assert sum_left_to_right([1e16, 1.0, -1e16, 0.1, 0.2]) == 0.30000000000000004


def test_group_totals_sum_left_to_right():
    """The one-pass totals of a group, which the schemes' metrics and
    admission weights read, add bits, cycles and densities left to right:
    0.1 + 0.2 + 0.3 gives 0.6000000000000001 where a compensated sum gives
    0.6."""
    values = [0.1, 0.2, 0.3]
    assert sum_left_to_right(values) != math.fsum(values)
    for sizes, densities in ((values, [1.0] * 3), ([1.0] * 3, values)):
        tasks = [Task(b, lam, 0.01 * (k + 1)) for k, (b, lam) in enumerate(zip(sizes, densities))]
        rates = [1e6, 2e6, 5e5]
        totals = _group_totals(tasks, rates)
        assert totals.bits == sum_left_to_right(sizes)
        assert totals.cycles == sum_left_to_right([b * lam for b, lam in zip(sizes, densities)])
        assert totals.density_cpb == sum_left_to_right(densities)
        assert (totals.deadline_s, totals.size) == (0.01, 3)
        assert totals.upload_s == max(b / r for b, r in zip(sizes, rates))
        assert _group_totals(tasks) == totals._replace(upload_s=0.0)
        assert group_demand_cps(tasks) == totals.cycles / (3 * 0.01)


def test_admission_prefers_heavier_first_layer():
    g = {0: 5.0, 1: 7.0, 2: 3.0}
    affinity = {0: [4.0, 8.0], 1: [2.0, 9.0], 2: [1.0, 1.0]}
    plan = admission_control(g, affinity)
    assert plan.y == {0: True, 1: True, 2: False}
    assert plan.assignment == {1: 1, 0: 0}


def test_admission_tie_breaks():
    # equal first-layer weight: the smaller AP id goes first
    g = {0: 5.0, 1: 5.0}
    affinity = {0: [3.0, 3.0], 1: [6.0, 1.0]}
    plan = admission_control(g, affinity)
    # equal affinity: AP 0 takes the smaller MEC id
    assert plan.assignment[0] == 0
    assert plan.assignment[1] == 1


def test_admission_is_injective_under_contention():
    g = {0: 3.0, 1: 2.0, 2: 1.0}
    affinity = {a: [1.0, 2.0, 10.0] for a in g}
    plan = admission_control(g, affinity)
    assert sorted(plan.assignment.values()) == [0, 1, 2]
    assert plan.assignment[0] == 2
    assert all(plan.y.values())


def test_admission_capacity_and_empty():
    # one MEC: the row length is the MEC count
    g = {0: 1.0, 1: 2.0, 2: 3.0}
    affinity = {a: [1.0] for a in g}
    plan = admission_control(g, affinity)
    assert sum(plan.y.values()) == 1
    assert plan.y[2] is True
    empty = admission_control({}, {})
    assert empty.y == {} and empty.assignment == {}


def test_admission_skips_mecs_without_positive_affinity():
    # AP 1 is served first but has no positive affinity, so it stays out
    # and both MECs go on down the order; AP 2 then takes the MEC left
    g = {0: 2.0, 1: 3.0, 2: 1.0}
    affinity = {0: [5.0, 0.0], 1: [0.0, 0.0], 2: [1.0, 2.0]}
    plan = admission_control(g, affinity)
    assert plan.y == {0: True, 1: False, 2: True}
    assert plan.assignment == {0: 0, 2: 1}
    # the only MEC left to AP 1 is one it has no affinity for
    affinity = {0: [5.0, 1.0], 1: [3.0, 0.0]}
    plan = admission_control({0: 2.0, 1: 1.0}, affinity)
    assert plan.y == {0: True, 1: False} and plan.assignment == {0: 0}
