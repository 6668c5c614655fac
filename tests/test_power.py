"""Per-cluster power allocation: closed form, batch forms, and grid oracle."""

import math

import numpy as np
import pytest

from nomec import ChannelState, ClusterPowerSolution, PowerConstraints, solve_cluster_power
from nomec.power import solve_pairs_batch, solve_singletons_batch
from conftest import gain_arrays
from oracles import grid_oracle

NOISE = 4e-14
B0 = 1e7


def chan():
    return ChannelState(*gain_arrays(), noise_w=NOISE, rrb_bandwidth_hz=B0)


def test_constraints_validation():
    with pytest.raises(ValueError):
        PowerConstraints(p_max_w=0.0)
    with pytest.raises(ValueError):
        PowerConstraints(p_max_w=0.5, rate_threshold_bps=-1.0)


def test_singleton_full_power():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=0.0)
    sol = solve_cluster_power([(0, 1e-12)], chan(), cons)
    assert sol.feasible
    assert sol.powers == (0.5,)
    snr = 0.5 * 1e-12 / NOISE
    assert sol.rates[0] == pytest.approx(B0 * math.log2(1.0 + snr), rel=1e-12)
    assert sol.objective == pytest.approx(math.log2(1.0 + snr), rel=1e-12)


def test_singleton_infeasible_below_threshold():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=1e9)
    sol = solve_cluster_power([(0, 1e-13)], chan(), cons)
    assert not sol.feasible
    assert sol.powers == (0.0,)
    assert sol.objective == float("-inf")


def test_pair_unconstrained_uses_full_power():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=0.0)
    sol = solve_cluster_power([(0, 1e-11), (1, 1e-12)], chan(), cons)
    assert sol.feasible
    assert sol.powers == (0.5, 0.5)
    # the sum rate at full power matches the analytic total
    total = math.log2((0.5 * 1e-11 + 0.5 * 1e-12 + NOISE) / NOISE)
    assert sol.objective == pytest.approx(total, rel=1e-12)


def test_pair_rate_floor_binds_weak_power():
    # threshold high enough that the strong UD's floor caps the weak power
    g_s, g_w = 5e-12, 4e-12
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=3e7)
    sol = solve_cluster_power([(0, g_s), (1, g_w)], chan(), cons)
    assert sol.feasible
    assert sol.powers[0] == 0.5
    assert sol.powers[1] < 0.5
    # the strong UD sits exactly on the floor
    assert sol.rates[0] == pytest.approx(3e7, rel=1e-9)
    assert sol.rates[1] >= 3e7 * (1.0 - 1e-12)


def test_pair_gain_tie_strong_is_lower_id():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=2.5e7)
    g = 3e-12
    sol = solve_cluster_power([(4, g), (9, g)], chan(), cons)
    assert sol.feasible
    # member order is (4, 9); the lower id decodes first (strong role)
    assert sol.powers[0] == 0.5
    assert sol.powers[1] <= 0.5


def test_pair_infeasible_threshold():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=5e8)
    sol = solve_cluster_power([(0, 1e-13), (1, 1e-14)], chan(), cons)
    assert not sol.feasible


def test_solver_argument_validation():
    cons = PowerConstraints(p_max_w=0.5)
    with pytest.raises(ValueError):
        solve_cluster_power([(0, 1e-12), (1, 1e-12), (2, 1e-12)], chan(), cons)
    with pytest.raises(ValueError):
        grid_oracle([(0, 1e-12)], chan(), cons, resolution=1)


def test_grid_oracle_corners_resolution_two():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=0.0)
    sol = grid_oracle([(0, 1e-12), (1, 1e-12)], chan(), cons, resolution=2)
    assert sol.feasible
    assert sol.powers == (0.5, 0.5)


def test_solver_never_below_grid_seeded():
    """The closed form must match or beat the grid search everywhere the
    grid finds a feasible point (the grid undershoots between its points)."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        g1 = float(10.0 ** rng.uniform(-13.5, -10.5))
        g2 = float(10.0 ** rng.uniform(-13.5, -10.5))
        r_th = float(rng.choice([0.0, 1e5, 1e6, 3e7]))
        cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=r_th)
        exact = solve_cluster_power([(0, g1), (1, g2)], chan(), cons)
        grid = grid_oracle([(0, g1), (1, g2)], chan(), cons, resolution=256)
        if grid.feasible:
            assert exact.feasible
            assert exact.objective >= grid.objective * (1.0 - 1e-6) - 1e-12


def test_pairs_batch_matches_scalar_route():
    """Vectorized pair solver agrees with the scalar candidate search."""
    rng = np.random.default_rng(11)
    n = 300
    g_lo = 10.0 ** rng.uniform(-14.0, -10.0, size=n)
    g_hi = 10.0 ** rng.uniform(-14.0, -10.0, size=n)
    for r_th in (0.0, 5e4, 5e6, 4e7):
        p_lo, p_hi, r_lo, r_hi, obj, feas = solve_pairs_batch(
            g_lo, g_hi, 0.5, NOISE, B0, r_th)
        cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=r_th)
        for i in range(n):
            sol = solve_cluster_power([(0, float(g_lo[i])), (1, float(g_hi[i]))],
                                      chan(), cons)
            assert bool(feas[i]) == sol.feasible
            if not sol.feasible:
                continue
            assert p_lo[i] == pytest.approx(sol.powers[0], rel=1e-12)
            assert p_hi[i] == pytest.approx(sol.powers[1], rel=1e-12)
            assert r_lo[i] == pytest.approx(sol.rates[0], rel=1e-12)
            assert r_hi[i] == pytest.approx(sol.rates[1], rel=1e-12)
            assert obj[i] == pytest.approx(sol.objective, rel=1e-12)


def test_singletons_batch_matches_scalar_route():
    rng = np.random.default_rng(13)
    gains = 10.0 ** rng.uniform(-14.0, -10.0, size=200)
    for r_th in (0.0, 1e6, 5e7):
        power, rate, obj, feas = solve_singletons_batch(gains, 0.5, NOISE, B0, r_th)
        cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=r_th)
        for i, g in enumerate(gains):
            sol = solve_cluster_power([(0, float(g))], chan(), cons)
            assert bool(feas[i]) == sol.feasible
            if sol.feasible:
                assert power[i] == pytest.approx(sol.powers[0], rel=1e-12)
                assert rate[i] == pytest.approx(sol.rates[0], rel=1e-12)
                assert obj[i] == pytest.approx(sol.objective, rel=1e-12)


def test_solution_is_frozen_record():
    sol = ClusterPowerSolution((0.5,), (1e6,), 0.1, True)
    with pytest.raises(Exception):
        sol.objective = 0.2
